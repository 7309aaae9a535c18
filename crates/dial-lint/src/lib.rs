//! dial-lint: in-tree static analysis for the dial workspace.
//!
//! Every headline number this system produces (era growth rates, Table 5
//! USD totals, LTA class flows) must be byte-reproducible across seeds,
//! thread counts, and live-vs-batch modes. Two shipped PRs each carried a
//! real `HashMap`-iteration-order bug that only an expensive downstream
//! equivalence gate happened to catch. This crate moves that bug class to
//! CI time: a hand-rolled Rust lexer (crates.io is unreachable here, and
//! lexical structure is all the rules need), a rule framework that walks
//! every workspace `.rs` file, and a suppression grammar that keeps the
//! false-positive escape hatch reviewable.
//!
//! The analysis is two-phase. Phase one lexes every workspace file and
//! builds a cross-file symbol index ([`index::WorkspaceIndex`]): fn
//! definitions, lock declarations and guard acquisitions with live
//! ranges, name-resolvable call edges, metrics-counter declarations and
//! increments, and error-response construction sites.
//! Phase two runs the per-file rules (R1–R4) over each file and the
//! graph rules (R5–R8) over the index.
//!
//! Rule catalogue (see DESIGN §14 and §19 for the full writeup):
//!
//! | code | id | severity | guards |
//! |------|----|----------|--------|
//! | R1 | `nondeterministic-iteration` | error | map iteration order in result crates |
//! | R2 | `unwrap-in-serve`            | error | panics on the dial-serve request path |
//! | R3 | `wall-clock-in-deterministic`| error | hidden time inputs in seeded crates |
//! | R4 | `missing-checkpoint`         | warning | deadline cooperation in long loops |
//! | R5 | `lock-order-inversion`       | critical | cycles in the lock-acquisition graph |
//! | R6 | `guard-across-blocking`      | error | guards held across fsync/socket I/O |
//! | R7 | `counter-drift`              | warning | metrics counters vs increments vs DESIGN |
//! | R8 | `raw-error-response`         | error | non-200s outside the error envelope |
//! | A0 | `bare-allow`                 | error | suppressions without a reason |
//!
//! Entry points: [`engine::run`] with an [`engine::Config`], rendering via
//! [`report::Report`]; [`engine::lock_graph_summary`] exposes the R5
//! graph for the cycle-free gate. The `dial lint` CLI subcommand, the
//! `ci.sh` gate, and `tests/lint_gate.rs` are thin wrappers over exactly
//! this API.

pub mod analysis;
pub mod engine;
pub mod index;
pub mod lexer;
pub mod report;
pub mod rules;

pub use engine::{lock_graph_summary, run, Config};
pub use report::{AllowRecord, Finding, Report};

#[cfg(test)]
mod tests {
    use crate::lexer::{lex, TokenKind};

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text.to_string())).collect()
    }

    #[test]
    fn raw_strings_hide_their_contents() {
        let toks = kinds(r####"let x = r#"for k in map.keys() { "quoted" }"#;"####);
        let raw: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::RawStr).collect();
        assert_eq!(raw.len(), 1);
        assert!(raw[0].1.contains("map.keys()"));
        // No Ident token leaked out of the raw string body.
        assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "keys"));
    }

    #[test]
    fn raw_strings_with_more_hashes_and_byte_variant() {
        let toks = kinds(r###"br##"a "# b"## "tail""###);
        assert_eq!(toks[0].0, TokenKind::RawStr);
        assert_eq!(toks[0].1, r###"br##"a "# b"##"###);
        assert_eq!(toks[1].0, TokenKind::Str);
    }

    #[test]
    fn nested_block_comments_close_at_the_right_depth() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[0].1, "a");
        assert_eq!(toks[1].0, TokenKind::BlockComment);
        assert!(toks[1].1.ends_with("still comment */"));
        assert_eq!(toks[2].1, "b");
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Lifetime).collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2, "{toks:?}");
        assert!(lifetimes.iter().all(|(_, t)| t == "'a"));
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].1, "'a'");
    }

    #[test]
    fn char_escapes_and_static_lifetime() {
        let toks = kinds(r"let q = '\''; let s: &'static str = x; let nl = '\n';");
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].1, r"'\''");
        assert_eq!(chars[1].1, r"'\n'");
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Lifetime && t == "'static"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r#"let a = b"bytes"; let b2 = b'x'; let c = b;"#);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::ByteStr && t == "b\"bytes\""));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Byte && t == "b'x'"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "b"));
    }

    #[test]
    fn shebang_is_one_token_but_inner_attribute_is_not() {
        let toks = kinds("#!/usr/bin/env run-cargo-script\nfn main() {}");
        assert_eq!(toks[0].0, TokenKind::Shebang);
        assert_eq!(toks[1].1, "fn");

        let toks = kinds("#![allow(dead_code)]\nfn main() {}");
        assert_eq!(toks[0].0, TokenKind::Punct);
        assert_eq!(toks[0].1, "#");
    }

    #[test]
    fn raw_identifiers_are_idents_not_strings() {
        let toks = kinds(r##"let r#fn = 1; let s = r#"raw"#;"##);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "r#fn"));
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::RawStr && t == r##"r#"raw"#"##));
    }

    #[test]
    fn doc_comments_are_comments() {
        let toks = kinds("/// outer docs\n//! inner docs\n/** block docs */\nstruct S;");
        assert_eq!(toks[0].0, TokenKind::LineComment);
        assert_eq!(toks[1].0, TokenKind::LineComment);
        assert_eq!(toks[2].0, TokenKind::BlockComment);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "struct"));
    }

    #[test]
    fn numbers_do_not_eat_range_dots_or_method_calls() {
        let toks = kinds("for i in 1..10 { x = 2.5e-3; y = 1.max(2); }");
        let nums: Vec<_> =
            toks.iter().filter(|(k, _)| *k == TokenKind::Num).map(|(_, t)| t.clone()).collect();
        assert_eq!(nums, ["1", "10", "2.5e-3", "1", "2"]);
        assert!(toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == "max"));
    }

    #[test]
    fn positions_are_one_based_and_line_accurate() {
        let toks = lex("fn a() {}\n  let b = 1;");
        let b = toks.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!((b.line, b.col), (2, 7));
    }
}
