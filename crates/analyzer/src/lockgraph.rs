//! Workspace lock-order graph.
//!
//! Every non-test function in every crate is walked token-by-token,
//! tracking which lock guards are live (let-bound guards until their
//! scope closes or an explicit `drop(guard)`; unbound temporaries until
//! the end of the statement). Each acquisition made while other guards
//! are held contributes a directed edge *held → acquired*; nodes are
//! module-qualified receiver names (`core::shard::wild`, see
//! [`crate::scopes::module_key`]), so every file of one module shares a
//! namespace and two crates' same-named modules do not; `[_]` marks
//! an indexed single-element acquisition and `[*]` a bulk
//! `lock_all`-style sweep. A cycle anywhere in the combined workspace
//! graph is a potential deadlock and fails the run (`lock-order-graph`).
//!
//! `try_lock` is deliberately not an acquisition: it cannot block, so it
//! cannot participate in a deadlock cycle, and the counted-lock
//! fast-path idiom (`try_lock` then blocking `lock` on the same mutex)
//! would otherwise self-edge every counted mutex.
//!
//! An acquisition line carrying `// spc-allow(lock-order-graph): …`
//! marks its edges *suppressed*: they stay in the DOT artifact (dashed)
//! for the reader but are excluded from cycle detection. The
//! suppression is counted as used only if the acquisition actually
//! created an edge, so stale allows rot loudly.

use crate::items::FnItem;
use crate::token::{receiver_chain, Tok, TokKind};
use crate::Finding;

/// One held→acquired edge in the lock-order graph.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Module-qualified node already held (e.g. `core::shard::shards[*]`).
    pub from: String,
    /// Module-qualified node being acquired.
    pub to: String,
    /// Workspace-relative file of the acquisition.
    pub file: String,
    /// 1-based line of the acquisition.
    pub line: usize,
    /// Enclosing function (for the DOT edge label).
    pub func: String,
    /// Excluded from cycle detection by an `spc-allow`.
    pub suppressed: bool,
}

/// Blocking acquisition methods. `try_lock` is intentionally absent
/// (see module docs).
const LOCK_METHODS: &[&str] = &["lock", "lock_uncounted"];
const BULK_METHODS: &[&str] = &["lock_all", "lock_all_uncounted"];

#[derive(Debug)]
struct Guard {
    /// Let-binding name, if any; unbound guards die at statement end.
    name: Option<String>,
    node: String,
    depth: i32,
}

/// Collects lock-order edges from one file of `module`. `allowed_lines` are the
/// lines covered by a `lock-order-graph` suppression; the second return
/// value lists which of those lines actually produced an edge (for
/// unused-suppression hygiene).
pub fn collect_edges(
    path: &str,
    module: &str,
    toks: &[Tok],
    fns: &[FnItem],
    allowed_lines: &[usize],
) -> (Vec<Edge>, Vec<usize>) {
    let mut edges = Vec::new();
    let mut used_allows = Vec::new();
    for f in fns.iter().filter(|f| !f.is_test) {
        let Some((open, close)) = f.body else {
            continue;
        };
        let mut held: Vec<Guard> = Vec::new();
        let mut depth = 0i32;
        let mut pending_let: Option<String> = None;
        let mut k = open + 1;
        while k < close.min(toks.len()) {
            let t = &toks[k];
            match t.kind {
                TokKind::Open if t.text == "{" => {
                    depth += 1;
                    pending_let = None;
                }
                TokKind::Close if t.text == "}" => {
                    depth -= 1;
                    held.retain(|g| g.depth <= depth);
                    pending_let = None;
                }
                TokKind::Punct if t.text == ";" => {
                    // Statement end: unbound temporaries at this depth die.
                    held.retain(|g| g.name.is_some() || g.depth < depth);
                    pending_let = None;
                }
                TokKind::Ident if t.text == "let" => {
                    if let Some(n) = toks.get(k + 1).filter(|n| n.kind == TokKind::Ident) {
                        let name = if n.text == "mut" {
                            toks.get(k + 2).filter(|n| n.kind == TokKind::Ident)
                        } else {
                            Some(n)
                        };
                        pending_let = name.map(|n| n.text.clone());
                    }
                }
                TokKind::Ident
                    if t.text == "drop"
                        && toks.get(k + 1).is_some_and(|n| n.is_open('('))
                        && toks.get(k + 3).is_some_and(|n| n.is_close(')')) =>
                {
                    // `drop(guard)` releases a named guard early.
                    if let Some(arg) = toks.get(k + 2).filter(|a| a.kind == TokKind::Ident) {
                        held.retain(|g| g.name.as_deref() != Some(&arg.text));
                    }
                }
                TokKind::Ident
                    if (LOCK_METHODS.contains(&t.text.as_str())
                        || BULK_METHODS.contains(&t.text.as_str()))
                        && k > 0
                        && toks[k - 1].is_punct(".")
                        && toks.get(k + 1).is_some_and(|n| n.is_open('(')) =>
                {
                    let chain = receiver_chain(toks, k - 1);
                    let base = chain.last().cloned().unwrap_or_else(|| "self".into());
                    let node = if BULK_METHODS.contains(&t.text.as_str()) {
                        format!("{module}::{base}[*]")
                    } else if k >= 2 && toks[k - 2].is_close(']') {
                        format!("{module}::{base}[_]")
                    } else {
                        format!("{module}::{base}")
                    };
                    let allowed = allowed_lines.contains(&t.line);
                    let mut made_edge = false;
                    for g in &held {
                        edges.push(Edge {
                            from: g.node.clone(),
                            to: node.clone(),
                            file: path.to_string(),
                            line: t.line,
                            func: f.name.clone(),
                            suppressed: allowed,
                        });
                        made_edge = true;
                    }
                    if allowed && made_edge {
                        used_allows.push(t.line);
                    }
                    held.push(Guard {
                        name: pending_let.clone(),
                        node,
                        depth,
                    });
                }
                _ => {}
            }
            k += 1;
        }
    }
    (edges, used_allows)
}

/// DFS cycle detection over the unsuppressed edges. One finding per
/// distinct cycle, anchored at its first edge's acquisition site.
pub fn check_cycles(edges: &[Edge]) -> Vec<Finding> {
    let live: Vec<&Edge> = edges.iter().filter(|e| !e.suppressed).collect();
    let mut nodes: Vec<&str> = Vec::new();
    for e in &live {
        for n in [e.from.as_str(), e.to.as_str()] {
            if !nodes.contains(&n) {
                nodes.push(n);
            }
        }
    }
    let idx = |n: &str| nodes.iter().position(|x| *x == n).unwrap();
    let adj: Vec<Vec<(usize, &Edge)>> = nodes
        .iter()
        .map(|n| {
            live.iter()
                .filter(|e| e.from == *n)
                .map(|e| (idx(&e.to), *e))
                .collect()
        })
        .collect();

    let mut out = Vec::new();
    let mut reported: Vec<Vec<usize>> = Vec::new();
    // color: 0 = white, 1 = on stack, 2 = done.
    let mut color = vec![0u8; nodes.len()];
    let mut stack: Vec<(usize, &Edge)> = Vec::new();

    fn dfs<'a>(
        v: usize,
        color: &mut [u8],
        adj: &[Vec<(usize, &'a Edge)>],
        stack: &mut Vec<(usize, &'a Edge)>,
        nodes: &[&str],
        reported: &mut Vec<Vec<usize>>,
        out: &mut Vec<Finding>,
    ) {
        color[v] = 1;
        for &(w, e) in &adj[v] {
            if color[w] == 1 {
                // Back edge: the cycle is the stack path from w to v
                // (w absent from the stack means w is the DFS root and
                // the whole stack is on the cycle), plus e itself.
                let mut cyc_edges: Vec<&Edge> = match stack.iter().position(|&(n, _)| n == w) {
                    Some(p) => stack[p + 1..].iter().map(|&(_, e)| e).collect(),
                    None => stack.iter().map(|&(_, e)| e).collect(),
                };
                cyc_edges.push(e);
                // Canonical node set for dedupe across DFS orders.
                let mut key: Vec<usize> = cyc_edges
                    .iter()
                    .map(|e| nodes.iter().position(|x| *x == e.to).unwrap())
                    .collect();
                key.sort_unstable();
                key.dedup();
                if reported.contains(&key) {
                    continue;
                }
                reported.push(key);
                let desc: Vec<String> = cyc_edges
                    .iter()
                    .map(|e| format!("{} -> {} ({}:{})", e.from, e.to, e.file, e.line))
                    .collect();
                let first = cyc_edges[0];
                out.push(Finding::new(
                    &first.file,
                    first.line,
                    "lock-order-graph",
                    format!("lock-order cycle (potential deadlock): {}", desc.join(", ")),
                ));
            } else if color[w] == 0 {
                stack.push((w, e));
                dfs(w, color, adj, stack, nodes, reported, out);
                stack.pop();
            }
        }
        color[v] = 2;
    }

    for v in 0..nodes.len() {
        if color[v] == 0 {
            dfs(
                v,
                &mut color,
                &adj,
                &mut stack,
                &nodes,
                &mut reported,
                &mut out,
            );
        }
    }
    out
}

/// Graphviz DOT rendering of the full edge set. Suppressed edges are
/// dashed; every edge is labeled with its acquiring function and line.
pub fn to_dot(edges: &[Edge]) -> String {
    let mut s = String::from(
        "// Lock-order graph emitted by spc-analyzer (SPC09).\n\
         // Solid edges participate in cycle detection; dashed edges are\n\
         // spc-allow-suppressed. Render: dot -Tsvg lock-order.dot -o lock-order.svg\n\
         digraph lock_order {\n    rankdir=LR;\n    node [shape=box, fontname=\"monospace\"];\n",
    );
    let mut seen: Vec<(String, String, bool)> = Vec::new();
    for e in edges {
        let key = (e.from.clone(), e.to.clone(), e.suppressed);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let style = if e.suppressed { ", style=dashed" } else { "" };
        s.push_str(&format!(
            "    \"{}\" -> \"{}\" [label=\"{}@{}\"{}];\n",
            e.from, e.to, e.func, e.line, style
        ));
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges_of(path: &str, src: &str, allowed: &[usize]) -> (Vec<Edge>, Vec<usize>) {
        let f = crate::SourceFile::parse(path, src);
        collect_edges(path, &f.module, &f.toks, &f.fns, allowed)
    }

    #[test]
    fn nested_acquisition_makes_an_edge() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn f(&self) {\n  let g = self.wild.lock();\n  let h = self.umq.lock();\n  g.push(1);\n }\n}\n",
            &[],
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "core::shard::wild");
        assert_eq!(e[0].to, "core::shard::umq");
    }

    #[test]
    fn drop_releases_before_next_lock() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn f(&self) {\n  let g = self.wild.lock();\n  g.push(1);\n  drop(g);\n  let h = self.umq.lock();\n }\n}\n",
            &[],
        );
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn scope_end_releases_guard() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn f(&self) {\n  {\n   let g = self.wild.lock();\n   g.push(1);\n  }\n  let h = self.umq.lock();\n }\n}\n",
            &[],
        );
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn f(&self) {\n  self.wild.lock().push(1);\n  let h = self.umq.lock();\n }\n}\n",
            &[],
        );
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn try_lock_is_not_an_acquisition() {
        let (e, _) = edges_of(
            "crates/core/src/concurrent.rs",
            "impl C {\n fn lock(&self) -> Guard {\n  if let Some(g) = self.inner.try_lock() {\n   return g;\n  }\n  self.inner.lock()\n }\n}\n",
            &[],
        );
        assert!(e.is_empty(), "{e:?}");
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let (mut e1, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn a(&self) {\n  let g = self.wild.lock();\n  let h = self.umq.lock();\n  g.x();\n }\n}\n",
            &[],
        );
        let (e2, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn b(&self) {\n  let h = self.umq.lock();\n  let g = self.wild.lock();\n  h.x();\n }\n}\n",
            &[],
        );
        e1.extend(e2);
        let f = check_cycles(&e1);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("lock-order cycle"));
    }

    #[test]
    fn suppressed_edges_skip_cycle_detection_but_stay_in_dot() {
        let (mut e1, used) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn a(&self) {\n  let g = self.wild.lock();\n  let h = self.umq.lock();\n  g.x();\n }\n}\n",
            &[4],
        );
        assert_eq!(used, vec![4]);
        let (e2, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn b(&self) {\n  let h = self.umq.lock();\n  let g = self.wild.lock();\n  h.x();\n }\n}\n",
            &[],
        );
        e1.extend(e2);
        assert!(check_cycles(&e1).is_empty());
        let dot = to_dot(&e1);
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn f(&self, i: usize, j: usize) {\n  let a = self.shards[i].lock();\n  let b = self.shards[j].lock();\n  a.x();\n }\n}\n",
            &[],
        );
        let f = check_cycles(&e);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn bulk_lock_is_one_node() {
        let (e, _) = edges_of(
            "crates/core/src/shard.rs",
            "impl S {\n fn reset(&self) {\n  let gs = self.shards.lock_all();\n  let w = self.wild.lock();\n  gs.len();\n }\n}\n",
            &[],
        );
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].from, "core::shard::shards[*]");
        assert!(check_cycles(&e).is_empty());
    }
}
