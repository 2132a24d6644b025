//! In-memory cgroup-v2 hierarchy.
//!
//! Used by the host simulator (`vfc-vmm`) as its authoritative cgroup
//! state, and by fixtures to materialize on-disk trees. Nodes are stored
//! in a flat arena (`Vec`) and addressed by [`NodeIdx`]. `rmdir` frees a
//! node's heap data and puts its slot on a free list, which the next
//! `mkdir` reuses, so the arena is bounded by the peak number of live
//! groups, not by every group a host ever created. A [`NodeIdx`] is
//! therefore valid only while its group lives: after `rmdir` the same
//! index may name a different, later group.
//!
//! The KVM layout helpers create the exact structure libvirt/KVM produce
//! on a systemd host:
//!
//! ```text
//! /machine.slice
//!   /machine-qemu\x2d1\x2dsmall0.scope      ← one per VM
//!     /libvirt
//!       /vcpu0                              ← one per vCPU (1 thread each)
//!       /vcpu1
//!       /emulator
//! ```

use crate::error::{CgroupError, Result};
use crate::model::{CpuMax, CpuStat, DEFAULT_WEIGHT};
use std::sync::atomic::{AtomicU64, Ordering};
use vfc_simcore::Tid;

/// Index of a node in the [`CgroupTree`] arena. Valid only while its
/// group lives: `rmdir` frees the slot and a later `mkdir` may reuse it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

/// One cgroup directory.
///
/// The knobs a running host turns (`cpu_max`, `weight`) and the counters
/// it reads (`cpu_stat`) are plain fields, written through
/// [`CgroupTree::node_mut`], which moves [`CgroupTree::values_epoch`]
/// (or, for the counters alone, [`CgroupTree::stat_mut`], which does not).
/// What makes up the *structure* of the hierarchy — parent/child links
/// and thread membership — is private and changes only through
/// [`CgroupTree`] methods, so that every such change moves
/// [`CgroupTree::structure_epoch`].
#[derive(Debug, Clone)]
pub struct CgroupNode {
    /// Directory name (single path component).
    pub name: String,
    parent: Option<NodeIdx>,
    /// Live children, in creation order.
    children: Vec<NodeIdx>,
    /// `cpu.max` limit.
    pub cpu_max: CpuMax,
    /// `cpu.stat` counters.
    pub cpu_stat: CpuStat,
    /// `cpu.weight` (CFS shares).
    pub weight: u32,
    threads: Vec<Tid>,
    alive: bool,
}

impl CgroupNode {
    /// Parent group; `None` only for the root.
    pub fn parent(&self) -> Option<NodeIdx> {
        self.parent
    }

    /// `cgroup.threads` members (leaf groups only in practice). A thread
    /// belongs to at most one group of a tree.
    pub fn threads(&self) -> &[Tid] {
        &self.threads
    }

    fn new(name: String, parent: Option<NodeIdx>) -> Self {
        CgroupNode {
            name,
            parent,
            children: Vec::new(),
            cpu_max: CpuMax::unlimited(),
            cpu_stat: CpuStat::default(),
            weight: DEFAULT_WEIGHT,
            threads: Vec::new(),
            alive: true,
        }
    }
}

/// An in-memory cgroup-v2 hierarchy rooted at `/`.
#[derive(Debug)]
pub struct CgroupTree {
    nodes: Vec<CgroupNode>,
    /// Slots of removed groups, most recently freed last: `mkdir` pops
    /// from here before it grows `nodes`.
    free: Vec<NodeIdx>,
    /// Live groups, root included.
    live: usize,
    /// See [`CgroupTree::structure_epoch`].
    epoch: u64,
    /// See [`CgroupTree::values_epoch`].
    values: u64,
}

/// Root node index (always present).
pub const ROOT: NodeIdx = NodeIdx(0);

/// Source of structure and values epochs. One counter for the whole
/// process, so no two structures — of one tree over time, or of two trees
/// — ever share an epoch. Only ever compared for equality.
fn fresh_epoch() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Default for CgroupTree {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for CgroupTree {
    /// The clone is a tree of its own: it gets fresh structure and values
    /// epochs, so a plan cached for the original is never mistaken for the
    /// clone's once the two diverge. It copies the free list too, so the
    /// same `mkdir`s issue the same indices in both.
    fn clone(&self) -> Self {
        CgroupTree {
            nodes: self.nodes.clone(),
            free: self.free.clone(),
            live: self.live,
            epoch: fresh_epoch(),
            values: fresh_epoch(),
        }
    }
}

impl CgroupTree {
    /// Create a tree containing only the root group.
    pub fn new() -> Self {
        CgroupTree {
            nodes: vec![CgroupNode::new(String::new(), None)],
            free: Vec::new(),
            live: 1,
            epoch: fresh_epoch(),
            values: fresh_epoch(),
        }
    }

    /// Cookie for everything a consumer may cache about the *structure*
    /// of this tree: which groups exist, their parent/child order, which
    /// threads sit in which group. It moves on `mkdir`, `rmdir` and thread
    /// attach/detach, and is unique per tree instance (a clone starts on a
    /// new one). It does **not** move on `cpu.max`, `cpu.weight` or
    /// `cpu.stat` writes: see [`CgroupTree::values_epoch`].
    pub fn structure_epoch(&self) -> u64 {
        self.epoch
    }

    /// Cookie for what a consumer may cache about the groups' *values*
    /// (`cpu.max`, `cpu.weight`) while the structure stands: it moves on
    /// every [`CgroupTree::node_mut`], whatever the caller changes, and not
    /// on [`CgroupTree::node`] or [`CgroupTree::stat_mut`]. Drawn from the
    /// structure epochs' counter, so unique per tree instance too (a clone
    /// starts on a new one). A consumer that caches values compares both
    /// epochs: a new group gets its values without a `node_mut`.
    pub fn values_epoch(&self) -> u64 {
        self.values
    }

    /// Immutable node access. `idx` must name a live group.
    pub fn node(&self, idx: NodeIdx) -> &CgroupNode {
        let n = &self.nodes[idx.0];
        debug_assert!(n.alive, "access to removed cgroup node");
        n
    }

    /// Mutable node access; moves [`CgroupTree::values_epoch`]. `idx` must
    /// name a live group.
    pub fn node_mut(&mut self, idx: NodeIdx) -> &mut CgroupNode {
        self.values = fresh_epoch();
        self.live_mut(idx)
    }

    /// Mutable access to a group's `cpu.stat` counters alone: the engine's
    /// per-tick accounting, which moves neither epoch. `idx` must name a
    /// live group.
    pub fn stat_mut(&mut self, idx: NodeIdx) -> &mut CpuStat {
        &mut self.live_mut(idx).cpu_stat
    }

    /// The live group at `idx`, moving neither epoch.
    fn live_mut(&mut self, idx: NodeIdx) -> &mut CgroupNode {
        let n = &mut self.nodes[idx.0];
        debug_assert!(n.alive, "access to removed cgroup node");
        n
    }

    /// Number of live groups, including the root.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Always `false`: the root group cannot be removed.
    pub fn is_empty(&self) -> bool {
        false // the root always exists
    }

    /// Create a child group under `parent`, in the slot most recently
    /// freed by `rmdir` if there is one. Errors if a live child with the
    /// same name exists.
    pub fn mkdir(&mut self, parent: NodeIdx, name: &str) -> Result<NodeIdx> {
        if name.is_empty() || name.contains('/') {
            return Err(CgroupError::Invalid(format!("bad cgroup name {name:?}")));
        }
        if self.child_named(parent, name).is_some() {
            return Err(CgroupError::Invalid(format!(
                "cgroup {name:?} already exists under {}",
                self.path_of(parent)
            )));
        }
        let node = CgroupNode::new(name.to_owned(), Some(parent));
        let idx = match self.free.pop() {
            Some(idx) => {
                self.nodes[idx.0] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                NodeIdx(self.nodes.len() - 1)
            }
        };
        self.nodes[parent.0].children.push(idx);
        self.live += 1;
        self.epoch = fresh_epoch();
        Ok(idx)
    }

    /// Remove a leaf group. Errors if the group still has children or
    /// threads (matching kernel `rmdir` semantics). The group's heap data
    /// is dropped and its slot freed for the next `mkdir`, so `idx` must
    /// not be used again.
    pub fn rmdir(&mut self, idx: NodeIdx) -> Result<()> {
        if idx == ROOT {
            return Err(CgroupError::Invalid("cannot remove the root".into()));
        }
        let node = &self.nodes[idx.0];
        if !node.alive {
            return Err(CgroupError::NoSuchGroup(format!("#{}", idx.0)));
        }
        if !node.children.is_empty() {
            return Err(CgroupError::Invalid(format!(
                "cgroup {} has children",
                self.path_of(idx)
            )));
        }
        if !node.threads.is_empty() {
            return Err(CgroupError::Invalid(format!(
                "cgroup {} has threads",
                self.path_of(idx)
            )));
        }
        let parent = node.parent.expect("non-root has a parent");
        self.nodes[idx.0] = CgroupNode {
            alive: false,
            ..CgroupNode::new(String::new(), None)
        };
        self.free.push(idx);
        self.nodes[parent.0].children.retain(|c| *c != idx);
        self.live -= 1;
        self.epoch = fresh_epoch();
        Ok(())
    }

    /// Find a live child by name.
    pub fn child_named(&self, parent: NodeIdx, name: &str) -> Option<NodeIdx> {
        self.nodes[parent.0]
            .children
            .iter()
            .copied()
            .find(|c| self.nodes[c.0].name == name)
    }

    /// Resolve an absolute path (`/a/b/c`); empty components ignored.
    pub fn resolve(&self, path: &str) -> Result<NodeIdx> {
        let mut cur = ROOT;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur = self
                .child_named(cur, comp)
                .ok_or_else(|| CgroupError::NoSuchGroup(path.to_owned()))?;
        }
        Ok(cur)
    }

    /// Absolute path of a node.
    pub fn path_of(&self, idx: NodeIdx) -> String {
        if idx == ROOT {
            return "/".to_owned();
        }
        let mut comps = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            if i == ROOT {
                break;
            }
            comps.push(self.nodes[i.0].name.as_str());
            cur = self.nodes[i.0].parent;
        }
        let mut out = String::new();
        for c in comps.iter().rev() {
            out.push('/');
            out.push_str(c);
        }
        out
    }

    /// Live children of a node, in creation order whatever slots they
    /// occupy (`rmdir` unlinks a group from its parent, so no freed slot
    /// is ever listed).
    pub fn children(&self, idx: NodeIdx) -> impl Iterator<Item = NodeIdx> + '_ {
        self.nodes[idx.0].children.iter().copied()
    }

    /// Depth-first iteration over all live nodes, root included.
    pub fn iter_dfs(&self) -> Vec<NodeIdx> {
        let mut out = Vec::with_capacity(self.live);
        self.iter_dfs_into(&mut out);
        out
    }

    /// Like [`CgroupTree::iter_dfs`], into a caller-owned buffer — the
    /// per-tick scheduling engine reuses one across ticks, so the
    /// steady-state traversal allocates nothing. Recursion depth is the
    /// hierarchy depth (root → VM group → vCPU group, a small constant).
    pub fn iter_dfs_into(&self, out: &mut Vec<NodeIdx>) {
        out.clear();
        self.dfs_push(ROOT, out);
    }

    fn dfs_push(&self, idx: NodeIdx, out: &mut Vec<NodeIdx>) {
        out.push(idx);
        for c in &self.nodes[idx.0].children {
            self.dfs_push(*c, out);
        }
    }

    /// Size of the node arena (live + freed slots) — the exclusive upper
    /// bound on every [`NodeIdx`] of a live group, and at most the peak
    /// number of groups ever live at once. Lets hot paths use dense
    /// per-node scratch arrays instead of hash maps.
    pub fn arena_size(&self) -> usize {
        self.nodes.len()
    }

    /// Attach a thread to a (leaf) group.
    pub fn attach_thread(&mut self, idx: NodeIdx, tid: Tid) {
        let node = self.live_mut(idx);
        if !node.threads.contains(&tid) {
            node.threads.push(tid);
            self.epoch = fresh_epoch();
        }
    }

    /// Remove every thread from a group (its tasks exited), after which
    /// the group can be `rmdir`ed.
    pub fn detach_threads(&mut self, idx: NodeIdx) {
        let node = self.live_mut(idx);
        if !node.threads.is_empty() {
            node.threads.clear();
            self.epoch = fresh_epoch();
        }
    }

    /// Aggregate `usage_usec` of a subtree (the kernel reports hierarchical
    /// usage in each group's `cpu.stat`; the simulator stores leaf usage
    /// and derives parents through this).
    pub fn subtree_usage(&self, idx: NodeIdx) -> vfc_simcore::Micros {
        let mut total = self.node(idx).cpu_stat.usage_usec;
        for &c in &self.nodes[idx.0].children {
            total += self.subtree_usage(c);
        }
        total
    }
}

/// KVM/libvirt naming helpers.
pub mod kvm_layout {
    use super::*;

    /// The slice every machine scope lives under.
    pub const MACHINE_SLICE: &str = "machine.slice";

    /// Scope directory name for VM number `n` named `name`
    /// (systemd escapes `-` as `\x2d`).
    pub fn scope_name(n: u32, name: &str) -> String {
        format!("machine-qemu\\x2d{n}\\x2d{name}.scope")
    }

    /// Parse a scope directory name back into `(n, vm_name)`.
    pub fn parse_scope_name(dir: &str) -> Option<(u32, String)> {
        scope_parts(dir).map(|(n, name)| (n, name.to_owned()))
    }

    /// [`parse_scope_name`] borrowing the VM name from `dir`.
    pub fn scope_parts(dir: &str) -> Option<(u32, &str)> {
        let rest = dir.strip_prefix("machine-qemu\\x2d")?;
        let rest = rest.strip_suffix(".scope")?;
        let (n, name) = rest.split_once("\\x2d")?;
        Some((n.parse().ok()?, name))
    }

    /// vCPU sub-group directory name.
    pub fn vcpu_dir(j: u32) -> String {
        format!("vcpu{j}")
    }

    /// Parse `vcpuN` back to `N`.
    pub fn parse_vcpu_dir(dir: &str) -> Option<u32> {
        dir.strip_prefix("vcpu")?.parse().ok()
    }

    /// Create the full scope + libvirt + vcpu layout for a VM; returns
    /// `(scope_idx, vcpu_idxs)`.
    pub fn provision(
        tree: &mut CgroupTree,
        n: u32,
        name: &str,
        vcpus: u32,
    ) -> Result<(NodeIdx, Vec<NodeIdx>)> {
        let slice = match tree.child_named(ROOT, MACHINE_SLICE) {
            Some(i) => i,
            None => tree.mkdir(ROOT, MACHINE_SLICE)?,
        };
        let scope = tree.mkdir(slice, &scope_name(n, name))?;
        let libvirt = tree.mkdir(scope, "libvirt")?;
        let _emulator = tree.mkdir(libvirt, "emulator")?;
        let mut vcpu_idx = Vec::with_capacity(vcpus as usize);
        for j in 0..vcpus {
            vcpu_idx.push(tree.mkdir(libvirt, &vcpu_dir(j))?);
        }
        Ok((scope, vcpu_idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::CpuMax;
    use vfc_simcore::Micros;

    #[test]
    fn mkdir_resolve_path_roundtrip() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let b = t.mkdir(a, "b").unwrap();
        assert_eq!(t.path_of(b), "/a/b");
        assert_eq!(t.resolve("/a/b").unwrap(), b);
        assert_eq!(t.resolve("/").unwrap(), ROOT);
        assert_eq!(t.path_of(ROOT), "/");
        assert!(t.resolve("/a/zz").is_err());
    }

    #[test]
    fn mkdir_rejects_duplicates_and_bad_names() {
        let mut t = CgroupTree::new();
        t.mkdir(ROOT, "a").unwrap();
        assert!(t.mkdir(ROOT, "a").is_err());
        assert!(t.mkdir(ROOT, "").is_err());
        assert!(t.mkdir(ROOT, "x/y").is_err());
    }

    #[test]
    fn rmdir_semantics() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let b = t.mkdir(a, "b").unwrap();
        assert!(t.rmdir(a).is_err(), "non-empty");
        assert!(t.rmdir(ROOT).is_err(), "root");
        t.attach_thread(b, Tid::new(1));
        assert!(t.rmdir(b).is_err(), "has threads");
        t.detach_threads(b);
        t.rmdir(b).unwrap();
        assert!(t.resolve("/a/b").is_err());
        t.rmdir(a).unwrap();
        assert_eq!(t.len(), 1);
        // double rmdir errors
        assert!(t.rmdir(a).is_err());
    }

    #[test]
    fn threads_attach_dedup() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        t.attach_thread(a, Tid::new(5));
        t.attach_thread(a, Tid::new(5));
        assert_eq!(t.node(a).threads(), [Tid::new(5)]);
    }

    #[test]
    fn structure_epoch_moves_on_structure_changes_only() {
        let mut t = CgroupTree::new();
        let mut last = t.structure_epoch();
        let mut moved = |t: &CgroupTree, what: &str, expect: bool| {
            let now = t.structure_epoch();
            assert_eq!(now != last, expect, "{what}");
            last = now;
        };
        let a = t.mkdir(ROOT, "a").unwrap();
        moved(&t, "mkdir", true);
        let b = t.mkdir(a, "b").unwrap();
        moved(&t, "mkdir of a child", true);
        t.attach_thread(b, Tid::new(1));
        moved(&t, "attach", true);
        t.attach_thread(b, Tid::new(1));
        moved(&t, "attach of a member", false);

        // The knobs and counters of a running host are not structure.
        t.node_mut(b).cpu_max = CpuMax::limited(Micros(10_000));
        t.node_mut(a).weight = 300;
        t.node_mut(b).cpu_stat.account_usage(Micros(5));
        moved(&t, "cpu.max / cpu.weight / cpu.stat", false);

        assert!(t.rmdir(b).is_err());
        moved(&t, "failed rmdir", false);
        t.detach_threads(b);
        moved(&t, "detach", true);
        t.detach_threads(b);
        moved(&t, "detach of an empty group", false);
        t.rmdir(b).unwrap();
        moved(&t, "rmdir", true);
    }

    #[test]
    fn values_epoch_moves_on_node_mut_only() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let mut last = t.values_epoch();
        let mut moved = |t: &CgroupTree, what: &str, expect: bool| {
            let now = t.values_epoch();
            assert_eq!(now != last, expect, "{what}");
            last = now;
        };
        t.node_mut(a).cpu_max = CpuMax::limited(Micros(10_000));
        moved(&t, "cpu.max", true);
        t.node_mut(a).weight = 300;
        moved(&t, "cpu.weight", true);
        let _ = t.node_mut(a).weight;
        moved(&t, "a node_mut that writes nothing", true);
        let _ = t.node(a).cpu_max;
        moved(&t, "node", false);
        t.stat_mut(a).account_usage(Micros(5));
        assert_eq!(t.node(a).cpu_stat.usage_usec, Micros(5));
        moved(&t, "stat_mut", false);
        let structure = t.structure_epoch();
        t.node_mut(a).weight = 400;
        assert_eq!(t.structure_epoch(), structure, "values are not structure");
        moved(&t, "cpu.weight again", true);

        let c = t.clone();
        assert_ne!(c.values_epoch(), t.values_epoch(), "a clone starts fresh");
        assert_eq!(c.node(a).weight, 400);
    }

    #[test]
    fn clone_is_a_tree_of_its_own() {
        let mut t = CgroupTree::new();
        t.mkdir(ROOT, "a").unwrap();
        let mut c = t.clone();
        assert_ne!(c.structure_epoch(), t.structure_epoch());
        assert_eq!(c.len(), t.len());
        // Diverging the two can never bring the epochs back together.
        c.mkdir(ROOT, "b").unwrap();
        t.mkdir(ROOT, "c").unwrap();
        assert_ne!(c.structure_epoch(), t.structure_epoch());
    }

    #[test]
    fn dfs_visits_all_live_nodes() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let _b = t.mkdir(a, "b").unwrap();
        let c = t.mkdir(ROOT, "c").unwrap();
        t.rmdir(c).unwrap();
        let dfs = t.iter_dfs();
        assert_eq!(dfs.len(), 3); // root, a, b
        assert_eq!(dfs[0], ROOT);
    }

    #[test]
    fn arena_is_bounded_by_the_peak_of_live_groups() {
        let mut t = CgroupTree::new();
        // Churn 1 000 VM scopes through at most 4 live at once.
        let mut live = std::collections::VecDeque::new();
        for n in 0..1_000u32 {
            let (scope, vcpus) = kvm_layout::provision(&mut t, n, "vm", 1 + n % 3).unwrap();
            live.push_back((scope, vcpus));
            if live.len() > 3 {
                let (scope, vcpus) = live.pop_front().unwrap();
                for g in vcpus {
                    t.rmdir(g).unwrap();
                }
                let libvirt = t.children(scope).next().unwrap();
                let emulator = t.children(libvirt).next().unwrap();
                for g in [emulator, libvirt, scope] {
                    t.rmdir(g).unwrap();
                }
            }
        }
        // Root, machine.slice, and 4 scopes of at most 3 + 3 groups.
        assert!(t.arena_size() <= 2 + 4 * 6, "arena {}", t.arena_size());
        assert_eq!(t.len(), t.iter_dfs().len());
    }

    #[test]
    fn a_reused_slot_reads_as_the_new_group() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let b = t.mkdir(a, "b").unwrap();
        t.attach_thread(b, Tid::new(9));
        t.node_mut(b).cpu_max = CpuMax::limited(Micros(10_000));
        t.node_mut(b).weight = 900;
        t.node_mut(b).cpu_stat.account_usage(Micros(77));
        t.detach_threads(b);
        t.rmdir(b).unwrap();

        let c = t.mkdir(ROOT, "c").unwrap();
        assert_eq!(c, b, "the most recently freed slot is reused");
        let node = t.node(c);
        assert_eq!(node.name, "c");
        assert_eq!(node.parent(), Some(ROOT));
        assert!(node.threads().is_empty());
        assert!(node.cpu_max.is_unlimited());
        assert_eq!(node.weight, DEFAULT_WEIGHT);
        assert_eq!(node.cpu_stat, CpuStat::default());
        assert_eq!(t.path_of(c), "/c");
        assert_eq!(t.resolve("/c").unwrap(), c);
        assert!(t.resolve("/a/b").is_err());
        assert_eq!(t.children(a).count(), 0);
        // Freed slots come back last-freed first.
        let (x, y) = (t.mkdir(a, "x").unwrap(), t.mkdir(a, "y").unwrap());
        t.rmdir(x).unwrap();
        t.rmdir(y).unwrap();
        assert_eq!(t.mkdir(a, "z").unwrap(), y);
        assert_eq!(t.mkdir(a, "w").unwrap(), x);
    }

    #[test]
    fn children_and_dfs_keep_creation_order_across_reuse() {
        let mut t = CgroupTree::new();
        let x = t.mkdir(ROOT, "x").unwrap();
        let y = t.mkdir(ROOT, "y").unwrap();
        let y1 = t.mkdir(y, "y1").unwrap();
        t.rmdir(x).unwrap();
        // `w` takes `x`'s slot, the lowest index, but is the youngest.
        let w = t.mkdir(ROOT, "w").unwrap();
        assert_eq!(w, x);
        let w1 = t.mkdir(w, "w1").unwrap();
        assert_eq!(t.children(ROOT).collect::<Vec<_>>(), [y, w]);
        assert_eq!(t.iter_dfs(), [ROOT, y, y1, w, w1]);
    }

    #[test]
    fn a_clone_issues_the_same_indices() {
        let mut t = CgroupTree::new();
        let groups: Vec<NodeIdx> = (0..5)
            .map(|i| t.mkdir(ROOT, &format!("g{i}")).unwrap())
            .collect();
        t.rmdir(groups[3]).unwrap();
        t.rmdir(groups[1]).unwrap();
        let mut c = t.clone();
        for name in ["p", "q", "r"] {
            assert_eq!(c.mkdir(ROOT, name).unwrap(), t.mkdir(ROOT, name).unwrap());
        }
        assert_eq!(c.arena_size(), t.arena_size());
        assert_eq!(c.iter_dfs(), t.iter_dfs());
    }

    #[test]
    fn subtree_usage_aggregates() {
        let mut t = CgroupTree::new();
        let a = t.mkdir(ROOT, "a").unwrap();
        let b = t.mkdir(a, "b").unwrap();
        let c = t.mkdir(a, "c").unwrap();
        t.node_mut(b).cpu_stat.usage_usec = Micros(100);
        t.node_mut(c).cpu_stat.usage_usec = Micros(50);
        assert_eq!(t.subtree_usage(a), Micros(150));
        assert_eq!(t.subtree_usage(ROOT), Micros(150));
    }

    #[test]
    fn kvm_scope_name_roundtrip() {
        let n = kvm_layout::scope_name(3, "small0");
        assert_eq!(n, "machine-qemu\\x2d3\\x2dsmall0.scope");
        assert_eq!(
            kvm_layout::parse_scope_name(&n),
            Some((3, "small0".to_owned()))
        );
        assert_eq!(kvm_layout::parse_scope_name("user.slice"), None);
        assert_eq!(kvm_layout::parse_vcpu_dir("vcpu7"), Some(7));
        assert_eq!(kvm_layout::parse_vcpu_dir("emulator"), None);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// A random operation script against the tree.
        #[derive(Debug, Clone)]
        enum Op {
            Mkdir { parent: usize, name: u8 },
            Rmdir { node: usize },
            Attach { node: usize, tid: u32 },
        }

        fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
            proptest::collection::vec(
                prop_oneof![
                    (0usize..32, 0u8..16).prop_map(|(parent, name)| Op::Mkdir { parent, name }),
                    (0usize..32).prop_map(|node| Op::Rmdir { node }),
                    (0usize..32, 0u32..100).prop_map(|(node, tid)| Op::Attach { node, tid }),
                ],
                0..60,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_tree_stays_consistent(ops in arb_ops()) {
                let mut tree = CgroupTree::new();
                // Live groups in creation order.
                let mut live: Vec<NodeIdx> = vec![ROOT];
                let mut peak = 1;
                for op in ops {
                    match op {
                        Op::Mkdir { parent, name } => {
                            let parent = live[parent % live.len()];
                            if let Ok(idx) =
                                tree.mkdir(parent, &format!("g{name}"))
                            {
                                live.push(idx);
                            }
                        }
                        Op::Rmdir { node } => {
                            let idx = live[node % live.len()];
                            if idx != ROOT && tree.rmdir(idx).is_ok() {
                                live.retain(|l| *l != idx);
                            }
                        }
                        Op::Attach { node, tid } => {
                            let idx = live[node % live.len()];
                            tree.attach_thread(idx, Tid::new(tid));
                        }
                    }
                    peak = peak.max(live.len());
                    // Freed slots are reused before the arena grows.
                    prop_assert!(tree.arena_size() <= peak);
                }

                // Every live node resolves through its own path.
                for &idx in &live {
                    let path = tree.path_of(idx);
                    prop_assert_eq!(tree.resolve(&path).expect("live path"), idx);
                }
                // DFS sees exactly the live set.
                let dfs = tree.iter_dfs();
                prop_assert_eq!(dfs.len(), live.len());
                prop_assert_eq!(tree.len(), live.len());
                // No child lists point at dead nodes, parent links agree
                // with child links, and children are in creation order
                // whatever slots they were given.
                for &idx in &dfs {
                    let children: Vec<NodeIdx> = tree.children(idx).collect();
                    let born: Vec<NodeIdx> = live
                        .iter()
                        .copied()
                        .filter(|&l| l != ROOT && tree.node(l).parent() == Some(idx))
                        .collect();
                    prop_assert_eq!(children, born);
                }
            }
        }
    }

    #[test]
    fn kvm_provision_creates_layout() {
        let mut t = CgroupTree::new();
        let (scope, vcpus) = kvm_layout::provision(&mut t, 1, "web", 2).unwrap();
        assert_eq!(
            t.path_of(scope),
            "/machine.slice/machine-qemu\\x2d1\\x2dweb.scope"
        );
        assert_eq!(vcpus.len(), 2);
        assert_eq!(
            t.path_of(vcpus[1]),
            "/machine.slice/machine-qemu\\x2d1\\x2dweb.scope/libvirt/vcpu1"
        );
        // Second VM shares machine.slice.
        let (scope2, _) = kvm_layout::provision(&mut t, 2, "db", 1).unwrap();
        assert_ne!(scope, scope2);
        // Same (n, name) collides, as in systemd.
        assert!(kvm_layout::provision(&mut t, 1, "web", 1).is_err());
    }
}
