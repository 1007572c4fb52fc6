//! Integration tests for the semantic source-analysis layer: lexer golden
//! tests on adversarial Rust, never-panics fuzzing of the lexer/masker, and
//! the PL061 cache-coherence pass against a deliberately broken fixture
//! (plus the real workspace, which must come back clean).

use std::path::Path;

use pipelayer_check::callgraph::Workspace;
use pipelayer_check::lex::{self, TokKind};
use pipelayer_check::{cachecheck, diag};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng as _};

fn kinds_and_texts(src: &str) -> Vec<(TokKind, &str)> {
    lex::lex(src)
        .iter()
        .map(|t| (t.kind, t.text(src)))
        .collect()
}

// ---- lexer golden tests ----------------------------------------------------

#[test]
fn golden_raw_strings_with_hashes() {
    // The `"#` inside the r##-string must not close it; the `"fn fake()"`
    // payload must not produce an Ident.
    let src = r####"let s = r##"quote " and hash "# and fn fake()"##;"####;
    assert_eq!(
        kinds_and_texts(src),
        vec![
            (TokKind::Ident, "let"),
            (TokKind::Ident, "s"),
            (TokKind::Punct, "="),
            (
                TokKind::Str,
                r####"r##"quote " and hash "# and fn fake()"##"####
            ),
            (TokKind::Punct, ";"),
        ]
    );
}

#[test]
fn golden_nested_block_comments() {
    // Rust block comments nest; the inner `*/` must not end the outer one.
    let src = "a /* outer /* inner */ still comment */ b";
    assert_eq!(
        kinds_and_texts(src),
        vec![(TokKind::Ident, "a"), (TokKind::Ident, "b")]
    );
    // lex_raw keeps the comment as one token.
    let raw = lex::lex_raw(src);
    let comments: Vec<&str> = raw
        .iter()
        .filter(|t| t.kind == TokKind::Comment)
        .map(|t| t.text(src))
        .collect();
    assert_eq!(comments, vec!["/* outer /* inner */ still comment */"]);
}

#[test]
fn golden_char_escapes_and_lifetimes() {
    // '\'' and '\\' are chars; 'a in a generic position is a lifetime.
    let src = r"let q = '\''; let b = '\\'; fn f<'a>(x: &'a u8) {}";
    let toks = kinds_and_texts(src);
    assert!(toks.contains(&(TokKind::Char, r"'\''")), "{toks:?}");
    assert!(toks.contains(&(TokKind::Char, r"'\\'")), "{toks:?}");
    assert!(toks.contains(&(TokKind::Lifetime, "'a")), "{toks:?}");
}

#[test]
fn golden_strings_swallow_code_like_payloads() {
    let src = r#"call("panic!(\"not a panic\") // not a comment");"#;
    let toks = kinds_and_texts(src);
    assert_eq!(
        toks.iter().filter(|(k, _)| *k == TokKind::Str).count(),
        1,
        "{toks:?}"
    );
    // The only idents are `call` — nothing from inside the string.
    let idents: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokKind::Ident)
        .map(|(_, t)| *t)
        .collect();
    assert_eq!(idents, vec!["call"]);
}

#[test]
fn golden_byte_strings_and_numbers() {
    let src = r#"let x = b"bytes \" here"; let n = 0xFF_u32; let f = 2.5e-3;"#;
    let toks = kinds_and_texts(src);
    assert!(
        toks.contains(&(TokKind::Str, r#"b"bytes \" here""#)),
        "{toks:?}"
    );
    assert!(toks.contains(&(TokKind::Num, "0xFF_u32")), "{toks:?}");
    assert!(toks.contains(&(TokKind::Num, "2.5e-3")), "{toks:?}");
}

#[test]
fn golden_line_comment_does_not_eat_next_line() {
    let src = "// fn ghost()\nfn real() {}";
    let idents: Vec<&str> = lex::lex(src)
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text(src))
        .collect();
    assert_eq!(idents, vec!["fn", "real"]);
    // Line numbers survive the comment.
    let real = lex::lex(src)
        .into_iter()
        .find(|t| t.text(src) == "real")
        .unwrap();
    assert_eq!(real.line, 2);
}

// ---- mask invariants -------------------------------------------------------

#[test]
fn mask_blanks_literals_and_comments_but_keeps_geometry() {
    let src = "let s = \"panic!\"; /* unwrap\nhere */ x";
    let masked = lex::mask(src);
    assert_eq!(masked.len(), src.len());
    assert_eq!(
        masked.matches('\n').count(),
        src.matches('\n').count(),
        "newlines must survive masking"
    );
    assert!(!masked.contains("panic"), "{masked}");
    assert!(!masked.contains("unwrap"), "{masked}");
    assert!(masked.contains("let s = "), "{masked}");
}

// ---- never-panics fuzzing --------------------------------------------------

/// Characters biased toward lexer edge cases.
const SOUP: &[u8] = b"\"'rb#\\/*\n `{}()!_azAZ09.\x7f";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Lexing arbitrary byte soup (lossily decoded) must never panic, and
    /// token spans must stay within bounds and non-decreasing.
    #[test]
    fn lex_never_panics_on_byte_soup(seed in 0u64..1_000_000, len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0u8..=255)).collect();
        let src = String::from_utf8_lossy(&bytes).into_owned();
        for t in lex::lex_raw(&src) {
            prop_assert!(t.start <= t.end && t.end <= src.len());
        }
        let masked = lex::mask(&src);
        prop_assert_eq!(masked.len(), src.len());
    }

    /// Soup biased toward quote/comment/hash delimiters — the hard cases.
    #[test]
    fn lex_never_panics_on_delimiter_soup(seed in 0u64..1_000_000, len in 0usize..120) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let src: String = (0..len)
            .map(|_| SOUP[rng.random_range(0..SOUP.len())] as char)
            .collect();
        let toks = lex::lex_raw(&src);
        for w in toks.windows(2) {
            prop_assert!(w[0].end <= w[1].start, "tokens overlap in {src:?}");
        }
        let masked = lex::mask(&src);
        prop_assert_eq!(masked.matches('\n').count(), src.matches('\n').count());
    }
}

// ---- PL061 against a broken fixture and the real workspace -----------------

fn fixture_spec() -> Vec<cachecheck::CacheSpec> {
    vec![cachecheck::CacheSpec {
        type_name: "Grid".to_string(),
        cache_field: "sum_cache".to_string(),
        state_fields: vec!["cells".to_string()],
    }]
}

#[test]
fn pl061_flags_the_broken_fixture_method_by_name() {
    // `poke` writes `cells` without touching `sum_cache` — the bug PL061
    // exists to catch. `poke_ok` invalidates and must pass.
    let ws = Workspace::build(vec![(
        "fixture.rs".to_string(),
        "pub struct Grid { cells: Vec<u8>, sum_cache: Option<u64> }\n\
         impl Grid {\n\
             pub fn poke(&mut self, i: usize) { self.cells[i] += 1; }\n\
             pub fn poke_ok(&mut self, i: usize) { self.cells[i] += 1; self.sum_cache = None; }\n\
         }\n"
        .to_string(),
    )]);
    let diags = cachecheck::check(&ws, &fixture_spec());
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, diag::SEM_CACHE_INCOHERENT);
    assert!(d.message.contains("`Grid::poke`"), "{}", d.message);
    assert!(!d.message.contains("poke_ok"), "{}", d.message);
}

#[test]
fn pl061_real_workspace_is_clean() {
    // The actual Crossbar (crates/reram) must satisfy its plane_cache
    // invariant method-by-method. This is the static twin of the dynamic
    // differential test in crossbar.rs.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let ws = Workspace::load(&root).expect("workspace loads");
    let diags = cachecheck::check(&ws, &cachecheck::default_specs());
    assert!(
        diags.is_empty(),
        "PL061 findings on the real tree: {diags:?}"
    );
}

/// The real `Crossbar` source, with `extra` appended as one more `impl`.
fn crossbar_with(extra: &str) -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("crates/reram/src/crossbar.rs");
    let src = std::fs::read_to_string(&path).expect("crossbar.rs is readable");
    Workspace::build(vec![(
        "crates/reram/src/crossbar.rs".to_string(),
        format!("{src}\nimpl Crossbar {{\n{extra}\n}}\n"),
    )])
}

#[test]
fn pl061_default_specs_name_real_crossbar_fields() {
    // A renamed storage field must be renamed in the spec too, or the pass
    // silently stops seeing writes to it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let src = std::fs::read_to_string(root.join("crates/reram/src/crossbar.rs"))
        .expect("crossbar.rs is readable");
    let body = src
        .split("pub struct Crossbar {")
        .nth(1)
        .and_then(|rest| rest.split("\n}").next())
        .expect("Crossbar struct body");
    for spec in cachecheck::default_specs() {
        for field in spec.state_fields.iter().chain([&spec.cache_field]) {
            assert!(
                body.contains(&format!("    {field}: ")),
                "PL061 spec names `{field}`, which `Crossbar` does not declare"
            );
        }
    }
}

#[test]
fn pl061_flags_a_real_crossbar_method_writing_levels_without_invalidating() {
    for body in [
        "pub fn sneak(&mut self) { self.levels.fill(0); }",
        "pub fn sneak(&mut self, i: usize) { self.levels[i] = 3; }",
        "pub fn sneak(&mut self) { for l in self.levels.iter_mut() { *l = 1; } }",
    ] {
        let diags = cachecheck::check(&crossbar_with(body), &cachecheck::default_specs());
        assert_eq!(diags.len(), 1, "{body}: {diags:?}");
        assert!(
            diags[0].message.contains("`Crossbar::sneak`") && diags[0].message.contains("levels"),
            "{}",
            diags[0].message
        );
    }
    let ok = "pub fn sneak(&mut self) { self.levels.fill(0); self.invalidate(); }";
    let diags = cachecheck::check(&crossbar_with(ok), &cachecheck::default_specs());
    assert!(diags.is_empty(), "{diags:?}");
}
