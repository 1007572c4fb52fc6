//! PL061 — cache-coherence check for manually-invalidated derived caches.
//!
//! `Crossbar::plane_cache` holds bit-packed conductance planes derived
//! from `levels` + `faults` + `drift` + `noise`, invalidated by hand at every
//! mutation site. One forgotten `self.plane_cache = None` in a future
//! `&mut self` method silently serves stale planes — a value bug no test
//! catches until the exact stale path is exercised.
//!
//! This pass makes the invariant structural. For each configured
//! [`CacheSpec`] `(type, cache field, state fields)` it flags every
//! `&mut self` method of `type` that **writes a state field** (directly or
//! by calling another method of the type that does) yet neither **touches
//! the cache field** nor calls a method that does.
//!
//! Write detection (token-level, over-approximate on purpose — a false
//! positive costs an explicit invalidation, a false negative costs a stale
//! cache):
//! * `self.F = …` assignment (excluding `==`),
//! * `self.F.as_mut(…)` / `self.F.take(…)` / any `&mut self.F`,
//! * a mutating method called on the field: `self.F.iter_mut()`,
//!   `self.F.get_mut(…)`, `self.F.fill(…)` and the like (any `*_mut`
//!   method, plus the in-place `Vec`/slice mutators),
//! * `self.F[…]` indexing inside a `&mut self` method.
//!
//! Invalidation = any of the same shapes applied to the cache field
//! (`self.C = …`, `self.C.take()`, `&mut self.C`, `self.C.as_mut(…)`), or a
//! call to a same-type method that invalidates. Findings are
//! error-severity: unlike the line lint there is no allowlist for PL061 —
//! the real `Crossbar` must stay clean.

use crate::callgraph::{FnItem, Recv, Workspace};
use crate::diag::{self, Diagnostic};
use crate::lex::TokKind;
use std::collections::{BTreeMap, BTreeSet};

/// One (type, cache field, state fields) triple to check.
#[derive(Debug, Clone)]
pub struct CacheSpec {
    pub type_name: String,
    pub cache_field: String,
    pub state_fields: Vec<String>,
}

/// The repo's configured caches: `Crossbar.plane_cache` is derived from the
/// stored cell levels, fault map, drift state, noise state, and wear state (an
/// exhausted cell becomes a live stuck-at fault, which changes what an MVM
/// reads). `ReramMatrix` (array_group.rs) caches its members' fused levels,
/// but keyed on each member's `generation` stamp, which `Crossbar`'s one
/// `invalidate()` replaces together with `plane_cache` — so a method that
/// passes this check also keeps the matrix cache coherent, and `Crossbar`
/// stays the one triple.
pub fn default_specs() -> Vec<CacheSpec> {
    vec![CacheSpec {
        type_name: "Crossbar".to_string(),
        cache_field: "plane_cache".to_string(),
        state_fields: vec![
            "levels".to_string(),
            "faults".to_string(),
            "drift".to_string(),
            "noise".to_string(),
            "wear".to_string(),
        ],
    }]
}

/// Token-level scan of one method body: does it write any of `fields`
/// through `self.<field>`? Returns the first written field name.
fn writes_field(ws: &Workspace, f: &FnItem, fields: &[String]) -> Option<String> {
    let (lo, hi) = f.body?;
    let file = ws.files.get(f.file)?;
    let text = |k: usize| file.toks.get(k).map(|t| t.text(&file.src)).unwrap_or("");
    let kind = |k: usize| file.toks.get(k).map(|t| t.kind);
    for k in lo..hi {
        // Pattern anchor: `self` `.` <field>.
        if !(kind(k) == Some(TokKind::Ident) && text(k) == "self") {
            continue;
        }
        if text(k + 1) != "." {
            continue;
        }
        let field = text(k + 2);
        if !fields.iter().any(|f| f == field) {
            continue;
        }
        // `&mut self.F` — a mutable borrow of the field.
        let borrowed_mut = k >= 2 && text(k - 1) == "mut" && text(k - 2) == "&";
        if borrowed_mut {
            return Some(field.to_string());
        }
        match text(k + 3) {
            // `self.F = …` but not `self.F == …`.
            "=" if text(k + 4) != "=" => return Some(field.to_string()),
            // `self.F.as_mut(…)` / `self.F.take(…)` / `self.F.iter_mut()` /
            // `self.F.fill(…)` — a method that mutates the field in place.
            "." if mutates_in_place(text(k + 4)) => return Some(field.to_string()),
            // `self.F[…]` — indexing a storage vector in a `&mut self`
            // method is treated as a write (over-approximation).
            "[" if f.mut_self => return Some(field.to_string()),
            _ => {}
        }
    }
    None
}

/// Whether calling method `name` on a field can mutate it in place: any
/// `*_mut` accessor, plus the `Option`/`Vec`/slice mutators.
fn mutates_in_place(name: &str) -> bool {
    name.ends_with("_mut")
        || matches!(
            name,
            "take"
                | "replace"
                | "insert"
                | "get_or_insert_with"
                | "fill"
                | "copy_from_slice"
                | "clone_from_slice"
                | "swap"
                | "push"
                | "pop"
                | "clear"
                | "truncate"
                | "resize"
                | "extend"
                | "extend_from_slice"
                | "retain"
                | "drain"
                | "remove"
                | "sort_unstable"
                | "reverse"
        )
}

/// Same-type callees of `f` (through `self.m(…)`, `Self::m(…)`, `Type::m(…)`).
fn same_type_callees(ws: &Workspace, idx: usize, type_name: &str) -> Vec<usize> {
    let Some(f) = ws.fns.get(idx) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for call in &f.calls {
        let targeted = match &call.recv {
            Recv::SelfDot => true,
            Recv::Ty(t) => t == type_name,
            _ => false,
        };
        if targeted {
            out.extend_from_slice(ws.lookup(Some(type_name), &call.name));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Transitive closure of a per-method predicate through same-type calls.
fn closure(
    ws: &Workspace,
    methods: &[usize],
    type_name: &str,
    direct: &BTreeMap<usize, String>,
) -> BTreeMap<usize, String> {
    let mut out: BTreeMap<usize, String> = direct.clone();
    let mut changed = true;
    while changed {
        changed = false;
        for &m in methods {
            if out.contains_key(&m) {
                continue;
            }
            for callee in same_type_callees(ws, m, type_name) {
                if let Some(via) = out.get(&callee) {
                    let label = ws
                        .fns
                        .get(callee)
                        .map(|c| format!("{via} (via {})", c.name))
                        .unwrap_or_else(|| via.clone());
                    out.insert(m, label);
                    changed = true;
                    break;
                }
            }
        }
    }
    out
}

/// Runs the pass over every configured spec. Error-severity findings; an
/// empty result means every mutating method of every configured type
/// invalidates its cache.
pub fn check(ws: &Workspace, specs: &[CacheSpec]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for spec in specs {
        let methods: Vec<usize> = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.self_ty.as_deref() == Some(spec.type_name.as_str()))
            .map(|(i, _)| i)
            .collect();

        let cache_fields = [spec.cache_field.clone()];
        let mut writes_direct: BTreeMap<usize, String> = BTreeMap::new();
        let mut invalidates_direct: BTreeMap<usize, String> = BTreeMap::new();
        for &m in &methods {
            let Some(f) = ws.fns.get(m) else { continue };
            if let Some(field) = writes_field(ws, f, &spec.state_fields) {
                writes_direct.insert(m, field);
            }
            if writes_field(ws, f, &cache_fields).is_some() {
                invalidates_direct.insert(m, spec.cache_field.clone());
            }
        }
        let writes = closure(ws, &methods, &spec.type_name, &writes_direct);
        let invalidates = closure(ws, &methods, &spec.type_name, &invalidates_direct);

        let flagged: BTreeSet<usize> = methods
            .iter()
            .copied()
            .filter(|m| {
                ws.fns.get(*m).is_some_and(|f| f.mut_self)
                    && writes.contains_key(m)
                    && !invalidates.contains_key(m)
            })
            .collect();
        for m in flagged {
            let Some(f) = ws.fns.get(m) else { continue };
            let field = writes.get(&m).cloned().unwrap_or_default();
            diags.push(Diagnostic::error(
                diag::SEM_CACHE_INCOHERENT,
                ws.location(f),
                format!(
                    "`{}` writes state field `{field}` but never invalidates `{}.{}`",
                    f.qualified(),
                    spec.type_name,
                    spec.cache_field
                ),
                format!(
                    "set `self.{} = None` (or call an invalidating method) before returning, \
                     or the cached planes go stale",
                    spec.cache_field
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Vec<CacheSpec> {
        vec![CacheSpec {
            type_name: "C".to_string(),
            cache_field: "cache".to_string(),
            state_fields: vec!["state".to_string(), "aux".to_string()],
        }]
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let ws = Workspace::build(vec![("lib.rs".to_string(), src.to_string())]);
        check(&ws, &spec())
    }

    #[test]
    fn missing_invalidation_is_flagged_by_method_name() {
        let diags = run(
            "struct C;\nimpl C {\n pub fn bad(&mut self) { self.state = 1; }\n pub fn good(&mut self) { self.state = 1; self.cache = None; }\n}",
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(
            diags[0].message.contains("`C::bad`"),
            "{}",
            diags[0].message
        );
        assert!(diags[0].message.contains("state"));
    }

    #[test]
    fn take_and_as_mut_count_as_invalidation() {
        let diags = run(
            "struct C;\nimpl C {\n fn a(&mut self) { self.state = 1; self.cache.take(); }\n fn b(&mut self) { self.aux.as_mut(); let c = self.cache.as_mut(); }\n}",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn transitive_writes_and_invalidations_propagate() {
        // `outer` writes via `inner_write` and invalidates via `inner_inval`;
        // `broken` writes transitively but never invalidates.
        let diags = run(
            "struct C;\nimpl C {\n fn inner_write(&mut self) { self.state = 1; self.cache = None; }\n fn inner_inval(&mut self) { self.cache = None; }\n fn outer(&mut self) { self.inner_write(); }\n fn write_only(&mut self) { self.state = 2; }\n fn broken(&mut self) { self.write_only(); }\n}",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.message.contains("`C::write_only`")));
        assert!(diags.iter().any(|d| d.message.contains("`C::broken`")));
    }

    #[test]
    fn immutable_methods_and_other_types_are_ignored() {
        let diags = run(
            "struct C;\nimpl C { fn read(&self) -> u8 { self.state } }\nstruct D;\nimpl D { fn m(&mut self) { self.state = 1; } }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn indexing_a_state_vector_counts_as_a_write() {
        let diags =
            run("struct C;\nimpl C { fn m(&mut self, i: usize) { self.state[i].poke(); } }");
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn in_place_mutator_calls_count_as_writes() {
        for call in ["iter_mut()", "get_mut(0)", "fill(0)", "chunks_exact_mut(4)"] {
            let diags = run(&format!(
                "struct C;\nimpl C {{ fn m(&mut self) {{ self.state.{call}; }} }}"
            ));
            assert_eq!(diags.len(), 1, "{call}: {diags:?}");
        }
        let diags = run(
            "struct C;\nimpl C { fn m(&mut self) { let n = self.state.iter().count(); self.aux.len(); } }",
        );
        assert!(diags.is_empty(), "reads are not writes: {diags:?}");
    }

    #[test]
    fn conditional_invalidation_counts() {
        let diags = run(
            "struct C;\nimpl C { fn m(&mut self) { self.state = 1; if hot() { self.cache = None; } } }\nfn hot() -> bool { true }",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
