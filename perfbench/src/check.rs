//! Output checks: returned particle dumps against an in-process
//! reference built from the bench harness's public functions.

use pic_bench::{build_ensemble, run_mdipole_steps, KernelVariant, MdipoleScenario};
use pic_math::Real;
use pic_particles::io::write_ensemble;
use pic_particles::{AosEnsemble, Layout, ParticleStore, SoaEnsemble};
use pic_perfmodel::Precision;
use pic_runtime::{Schedule, Topology};
use pic_serve::JobSpec;

/// Length and a 64-bit multiply-xor hash of a byte string, taken eight
/// bytes at a time (FNV-1a over words). Each step `h = (h ^ w) · P` with
/// odd `P` is a bijection of `h` for a fixed word and of the word for a
/// fixed `h`, so two equal-length strings that differ in exactly one
/// byte always get different digests; the returned dump itself need not
/// be kept.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct Digest {
    len: usize,
    hash: u64,
}

impl Digest {
    /// Digest of `bytes`.
    pub fn of(bytes: &[u8]) -> Digest {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            let w = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
            hash = (hash ^ w).wrapping_mul(PRIME);
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        hash = (hash ^ u64::from_le_bytes(last)).wrapping_mul(PRIME);
        Digest {
            len: bytes.len(),
            hash,
        }
    }
}

/// Accepts `got` only when it is the digest of the same bytes as
/// `expected`.
pub fn check_dump(expected: &Digest, got: &Digest) -> Result<(), String> {
    if expected.len != got.len {
        return Err(format!(
            "dump is {} bytes, reference is {}",
            got.len, expected.len
        ));
    }
    if expected.hash != got.hash {
        return Err("dump differs from the reference".to_string());
    }
    Ok(())
}

/// The text dump a monolithic run of `spec` produces: `build_ensemble`,
/// `run_mdipole_steps` over all steps in one call, then `write_ensemble`.
pub fn reference_dump(spec: &JobSpec) -> Vec<u8> {
    match (spec.layout, spec.precision) {
        (Layout::Aos, Precision::F32) => reference::<f32, AosEnsemble<f32>>(spec),
        (Layout::Aos, Precision::F64) => reference::<f64, AosEnsemble<f64>>(spec),
        (Layout::Soa, Precision::F32) => reference::<f32, SoaEnsemble<f32>>(spec),
        (Layout::Soa, Precision::F64) => reference::<f64, SoaEnsemble<f64>>(spec),
    }
}

fn reference<R: Real, S: ParticleStore<R>>(spec: &JobSpec) -> Vec<u8> {
    let mut store: S = build_ensemble(spec.particles, spec.seed);
    let ctx = MdipoleScenario::<R>::prepare(spec.scenario, &store);
    let mut time = R::ZERO;
    let run = run_mdipole_steps(
        &mut store,
        &ctx,
        spec.steps,
        &mut time,
        &Topology::single(1),
        Schedule::dynamic(),
        KernelVariant::SoaFast,
        None,
        &mut |_, _| true,
    );
    assert_eq!(run.steps_done, spec.steps, "reference run stopped early");
    let mut out = Vec::new();
    write_ensemble(&store, &mut out).expect("writing to a Vec cannot fail");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pic_perfmodel::Scenario;

    #[test]
    fn a_flipped_byte_is_rejected() {
        let spec = JobSpec {
            scenario: Scenario::Analytical,
            particles: 64,
            steps: 3,
            seed: 5,
            ..JobSpec::default()
        };
        let dump = reference_dump(&spec);
        let expected = Digest::of(&dump);
        assert_eq!(
            check_dump(&expected, &Digest::of(&reference_dump(&spec))),
            Ok(())
        );
        for at in (0..dump.len()).step_by(7).chain([dump.len() - 1]) {
            let mut bad = dump.clone();
            bad[at] ^= 0x01;
            assert!(
                check_dump(&expected, &Digest::of(&bad)).is_err(),
                "byte {at}"
            );
        }
        assert!(check_dump(&expected, &Digest::of(&dump[1..])).is_err());
    }

    #[test]
    fn the_reference_depends_on_every_spec_field_that_shapes_the_dump() {
        let base = JobSpec {
            particles: 32,
            steps: 2,
            ..JobSpec::default()
        };
        let digest = |s: &JobSpec| Digest::of(&reference_dump(s));
        let d0 = digest(&base);
        assert_ne!(
            d0,
            digest(&JobSpec {
                seed: 43,
                ..base.clone()
            })
        );
        assert_ne!(
            d0,
            digest(&JobSpec {
                steps: 3,
                ..base.clone()
            })
        );
        assert_ne!(
            d0,
            digest(&JobSpec {
                scenario: Scenario::Precalculated,
                ..base.clone()
            })
        );
        // Layout never changes a trajectory.
        assert_eq!(
            d0,
            digest(&JobSpec {
                layout: Layout::Aos,
                ..base.clone()
            })
        );
    }
}
