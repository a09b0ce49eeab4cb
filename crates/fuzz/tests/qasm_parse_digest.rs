//! Pins the QASM front-end's observable behaviour to one digest.
//!
//! Every parse result — each accepted circuit's width and gates (parameters
//! to the bit through `f64`'s round-trip `Debug`), and each rejection's
//! diagnostics with kind, line, column, snippet, order and count — is
//! rendered with `Debug` and folded into a 64-bit FNV-1a digest. The inputs
//! are 20,000 seeded adversarial sources (random bytes, token soup, mutated
//! programs), each parsed under default and under tight [`ParseLimits`] so
//! the abort-on-cap, `TooManyGates`, register-width and expression-depth
//! paths are all reached, plus the `to_qasm` text of the paper's 18 Fig. 6
//! applications (fixed generator seeds).
//!
//! `EXPECTED` was computed with the `String`-token lexer and cloning parser
//! that preceded the byte lexer; any rewrite of `qasm::lexer`/`qasm::parser`
//! must reproduce it exactly. A mismatch means some input now parses (or is
//! rejected) differently; diff the per-case renderings of the two versions
//! to find which.

use fuzz::bytes::{adversarial_source, case_rng};
use ion_circuit::generators::{BenchmarkApp, BenchmarkScale};
use ion_circuit::qasm::{self, ParseLimits};

const CASES: u64 = 20_000;
const SEED: u64 = 42;
const EXPECTED: u64 = 0x0abb_44e8_cc2a_f73c;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    // Separate consecutive cases so a byte cannot migrate across them.
    digest ^= 0xff;
    digest.wrapping_mul(FNV_PRIME)
}

fn rendered(source: &str, limits: &ParseLimits) -> String {
    format!(
        "{:?}",
        qasm::parse_with_limits(source, limits).map(|c| (c.num_qubits(), c.gates().to_vec()))
    )
}

fn fig6_sources() -> Vec<String> {
    [
        BenchmarkScale::Small,
        BenchmarkScale::Medium,
        BenchmarkScale::Large,
    ]
    .into_iter()
    .flat_map(BenchmarkScale::apps)
    .map(|app: BenchmarkApp| qasm::to_qasm(&app.circuit()))
    .collect()
}

#[test]
fn parse_results_match_the_pinned_digest() {
    let fig6 = fig6_sources();
    assert_eq!(fig6.len(), 18, "the paper's Fig. 6 has 18 applications");
    let default = ParseLimits::default();
    let tight = ParseLimits {
        max_qubits: 64,
        max_gates: 40,
        max_expr_depth: 8,
        max_diagnostics: 4,
    };
    let mut digest = FNV_OFFSET;
    let mut rejected = 0u64;
    for index in 0..CASES {
        let source = adversarial_source(&mut case_rng(SEED, index));
        let text = rendered(&source, &default);
        rejected += u64::from(text.starts_with("Err"));
        digest = fold(digest, text.as_bytes());
        digest = fold(digest, rendered(&source, &tight).as_bytes());
    }
    for source in &fig6 {
        let text = rendered(source, &default);
        assert!(
            text.starts_with("Ok"),
            "Fig. 6 text must parse: {text:.200}"
        );
        digest = fold(digest, text.as_bytes());
    }
    // The campaign must mostly exercise error paths, and not only them.
    assert!(rejected > CASES / 2 && rejected < CASES, "{rejected}");
    assert_eq!(
        digest, EXPECTED,
        "parse digest {digest:#018x} differs from the pinned {EXPECTED:#018x}"
    );
}
