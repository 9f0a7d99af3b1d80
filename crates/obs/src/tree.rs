//! Per-demand trace trees: the attribution model behind `:explain
//! analyze` and the `sys.demands` introspection table.
//!
//! A [`DemandTrace`] records one executed demand: the optimized plan
//! shape with one [`OpNode`] per operator carrying exact row counts and
//! *sampled* cumulative nanoseconds (the executor stamps every Nth
//! tuple, so times are estimates while rows are exact).  The engine
//! keeps a bounded ring of the last K traces; the REPL renders them,
//! [`crate::export::folded_stacks`] turns them into flamegraph input,
//! and `sys.demands` exposes one tuple per node.

/// Cache disposition of one trace-tree node (or of the demand's plan
/// cache as a whole).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from a cache (memo or plan cache) without recomputation.
    Hit,
    /// A cacheable boundary that had to compute.
    Miss,
    /// Not a caching boundary.
    NotCached,
}

impl CacheStatus {
    pub fn label(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::NotCached => "-",
        }
    }
}

/// One executed operator in a demand's plan.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// Operator label as printed by the plan pretty-printer, e.g.
    /// `Restrict state = 'LA'`.
    pub op: String,
    /// Exact tuples pulled from the children (source: tuples scanned).
    pub rows_in: u64,
    /// Exact tuples this operator produced.
    pub rows_out: u64,
    /// Sampled cumulative (inclusive-of-children) nanoseconds.  Zero for
    /// stages fused into a parallel segment — their time is attributed
    /// to the segment root.
    pub ns: u64,
    /// Memo-cache disposition (sources are the memo boundaries).
    pub cache: CacheStatus,
    /// Empty for operators present in the user's program; `"window"` for
    /// the viewer-synthesized window restrict, `"rewritten"` for nodes
    /// the optimizer produced or moved, `"window-index"` for a source
    /// whose scan read only a grid index's candidate rows.
    pub provenance: String,
    /// Workers that executed the parallel segment rooted here; 0 when
    /// this node ran serially.
    pub par_workers: u64,
    pub children: Vec<OpNode>,
}

impl OpNode {
    /// Inclusive time normalized so a parent is never reported smaller
    /// than the sum of its children (tuple-sampling noise can otherwise
    /// invert them).  Self time is `effective_ns - Σ children effective`.
    pub fn effective_ns(&self) -> u64 {
        self.ns.max(self.children.iter().map(Self::effective_ns).sum())
    }

    /// This node plus all descendants.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(Self::node_count).sum::<usize>()
    }
}

/// One recorded demand: header facts plus the operator tree.
#[derive(Debug, Clone)]
pub struct DemandTrace {
    /// Monotonic id assigned by the engine.
    pub demand_id: u64,
    /// Protocol request id of the frame that triggered this demand
    /// (assigned per frame by `tiogad`'s protocol layer), or 0 for
    /// demands issued outside a request context (REPL, tests).  Lets an
    /// operator correlate a slow trace back to the exact wire frame and
    /// its journal event.
    pub request_id: u64,
    /// The demanded output, e.g. `#7.0 (Project)`.
    pub label: String,
    /// Wall time of the whole demand (planning + execution).
    pub total_ns: u64,
    /// Worker budget the demand ran under.
    pub threads: usize,
    /// Partition-parallel segments executed.
    pub par_segments: u64,
    /// Whether the plan cache answered (or could have answered) the
    /// demand without executing.
    pub plan_cache: CacheStatus,
    /// Rewrite rules applied while planning, with counts.
    pub rewrites: Vec<(String, u64)>,
    /// `"ok"` for a completed demand; otherwise the abort class
    /// (`"budget_exceeded"`, `"cancelled"`, `"fault_injected"`,
    /// `"panic"`, `"error"`) — the demand stopped early and the row/time
    /// figures below cover only the work done before the abort.
    pub status: String,
    pub root: OpNode,
}

impl DemandTrace {
    /// Whether the demand aborted before completing (see [`Self::status`]).
    pub fn is_aborted(&self) -> bool {
        !self.status.is_empty() && self.status != "ok"
    }

    /// The demand's total, never smaller than the tree it encloses.
    pub fn total_effective_ns(&self) -> u64 {
        self.total_ns.max(self.root.effective_ns())
    }

    /// Human-readable annotated tree (the body of `:explain analyze`).
    pub fn render(&self) -> String {
        let mut out = format!(
            "demand #{} on {} — {}, threads={}, {} parallel segment(s), plan cache {}\n",
            self.demand_id,
            self.label,
            fmt_ms(self.total_ns),
            self.threads,
            self.par_segments,
            self.plan_cache.label(),
        );
        if self.request_id != 0 {
            out.push_str(&format!("request #{}\n", self.request_id));
        }
        if !self.rewrites.is_empty() {
            let list: Vec<String> =
                self.rewrites.iter().map(|(r, n)| format!("{r} x{n}")).collect();
            out.push_str(&format!("rewrites: {}\n", list.join(", ")));
        }
        if self.is_aborted() {
            out.push_str(&format!(
                "ABORTED ({}): partial counts below cover only the work done before the abort\n",
                self.status
            ));
        }
        // Two-pass render so the annotation columns line up.
        let mut lines: Vec<(String, String)> = Vec::new();
        let total = self.total_effective_ns().max(1);
        collect_lines(&self.root, 1, total, &mut lines);
        let width = lines.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (left, right) in lines {
            out.push_str(&format!("{left:width$}  {right}\n"));
        }
        out
    }

    /// Folded-stacks (flamegraph collapsed) lines for this demand.  The
    /// demand label is the root frame; every line's count is a node's
    /// *self* time, so the lines sum exactly to
    /// [`total_effective_ns`](Self::total_effective_ns).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        let root_frame = frame(&format!("demand#{}_{}", self.demand_id, self.label));
        let overhead = self.total_effective_ns() - self.root.effective_ns();
        if overhead > 0 {
            out.push_str(&format!("{root_frame} {overhead}\n"));
        }
        fold(&self.root, &root_frame, &mut out);
        out
    }
}

fn collect_lines(node: &OpNode, depth: usize, total: u64, out: &mut Vec<(String, String)>) {
    let eff = node.effective_ns();
    let mut right = format!(
        "rows {} -> {}  {}  {:5.1}%",
        node.rows_in,
        node.rows_out,
        fmt_ms(eff),
        100.0 * eff as f64 / total as f64
    );
    match node.cache {
        CacheStatus::NotCached => {}
        status => right.push_str(&format!("  [memo {}]", status.label())),
    }
    if !node.provenance.is_empty() {
        right.push_str(&format!("  [{}]", node.provenance));
    }
    if node.par_workers > 0 {
        right.push_str(&format!("  [par x{}]", node.par_workers));
    }
    out.push((format!("{}{}", "  ".repeat(depth), node.op), right));
    for child in &node.children {
        collect_lines(child, depth + 1, total, out);
    }
}

fn fold(node: &OpNode, prefix: &str, out: &mut String) {
    let stack = format!("{prefix};{}", frame(&node.op));
    let child_sum: u64 = node.children.iter().map(OpNode::effective_ns).sum();
    let self_ns = node.effective_ns() - child_sum;
    if self_ns > 0 || node.children.is_empty() {
        out.push_str(&format!("{stack} {self_ns}\n"));
    }
    for child in &node.children {
        fold(child, &stack, out);
    }
}

/// Folded-format frame names must not contain the `;` separator, and
/// whitespace confuses the trailing-count split in common tooling.
fn frame(s: &str) -> String {
    s.chars().map(|c| if c == ';' || c.is_whitespace() { '_' } else { c }).collect()
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3} ms", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(op: &str, rows: u64, ns: u64) -> OpNode {
        OpNode {
            op: op.to_string(),
            rows_in: rows,
            rows_out: rows,
            ns,
            cache: CacheStatus::NotCached,
            provenance: String::new(),
            par_workers: 0,
            children: vec![],
        }
    }

    fn sample_trace() -> DemandTrace {
        let mut source = leaf("Source #0.0 (Stations)", 200, 100_000);
        source.cache = CacheStatus::Hit;
        let restrict = OpNode {
            op: "Restrict state = 'LA'".to_string(),
            rows_in: 200,
            rows_out: 42,
            ns: 400_000,
            cache: CacheStatus::NotCached,
            provenance: "rewritten".to_string(),
            par_workers: 4,
            children: vec![source],
        };
        let root = OpNode {
            op: "Project [name, altitude]".to_string(),
            rows_in: 42,
            rows_out: 42,
            // Deliberately *less* than the child: sampling noise.
            ns: 300_000,
            cache: CacheStatus::NotCached,
            provenance: String::new(),
            par_workers: 0,
            children: vec![restrict],
        };
        DemandTrace {
            demand_id: 7,
            request_id: 91,
            label: "#2.0 (Project)".to_string(),
            total_ns: 1_000_000,
            threads: 4,
            par_segments: 1,
            plan_cache: CacheStatus::Miss,
            rewrites: vec![("fuse_restricts".to_string(), 1)],
            status: "ok".to_string(),
            root,
        }
    }

    #[test]
    fn effective_ns_never_inverts_parent_child() {
        let t = sample_trace();
        assert_eq!(t.root.effective_ns(), 400_000); // lifted to child sum
        assert_eq!(t.total_effective_ns(), 1_000_000);
        assert_eq!(t.root.node_count(), 3);
    }

    #[test]
    fn render_shows_rows_time_pct_and_annotations() {
        let r = sample_trace().render();
        assert!(r.contains("demand #7 on #2.0 (Project)"), "{r}");
        assert!(r.contains("request #91"), "{r}");
        assert!(r.contains("plan cache miss"), "{r}");
        assert!(r.contains("rewrites: fuse_restricts x1"), "{r}");
        assert!(r.contains("rows 200 -> 42"), "{r}");
        assert!(r.contains("[memo hit]"), "{r}");
        assert!(r.contains("[rewritten]"), "{r}");
        assert!(r.contains("[par x4]"), "{r}");
        assert!(r.contains('%'), "{r}");
    }

    #[test]
    fn folded_sums_to_total_demand_time() {
        let t = sample_trace();
        let folded = t.folded();
        let mut sum = 0u64;
        for line in folded.lines() {
            let (stack, count) = line.rsplit_once(' ').unwrap();
            assert!(!stack.contains(' '), "frames must not contain spaces: {line}");
            sum += count.parse::<u64>().unwrap();
        }
        assert_eq!(sum, t.total_effective_ns());
        assert!(folded.contains("demand#7_#2.0_(Project);Project_[name,_altitude]"), "{folded}");
    }
}
