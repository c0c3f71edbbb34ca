//! Incremental weighted max-min allocation with dirty-set propagation.
//!
//! A from-scratch filling loop ([`weighted_max_min`](crate::maxmin::weighted_max_min),
//! the oracle) re-derives everything on every call: it rebuilds the
//! per-link user lists and active weights (O(Σ|links|)) and then scans
//! *every* live link in *every* filling round (O(rounds × links)).
//! Inside the fluid simulator that cost would be paid per event even
//! though one event changes a handful of entities.
//!
//! [`IncrementalAllocator`] keeps the allocation state **across**
//! calls and reconciles only what changed:
//!
//! * **Persistent incidence state.** Entities are grouped (one group per
//!   connection, one entity per subflow) and stored flat: per-entity
//!   weight, rate, freeze stamp and link lists live in dense parallel
//!   arrays indexed by a stable entity id, with a slab of per-group
//!   facades on top for the editing API. Per-link user lists, base
//!   active weights and base shares persist across epochs. An arrival/
//!   departure/reroute marks exactly the links it touches **dirty**; at
//!   the next [`allocate`](IncrementalAllocator::allocate) only dirty
//!   links re-fold their weight sums — in entity order, so the
//!   floating-point fold is bit-identical to a from-scratch build.
//! * **Bucket/far filling.** The progressive-filling loop keeps a small
//!   *bucket* of links whose exact shares straddle the current water
//!   level (scanned every round) and a *far* tier that is never scanned,
//!   each far link carrying a certified lower bound on its share.
//!   Skipping a far link is justified by a monotonicity theorem, not a
//!   tolerance: a link that was not in this round's freeze window loses
//!   a victim of weight `w` frozen at level `L` below its own share `S`,
//!   so its new share `(S·act − w·L) / (act − w)` is strictly *above*
//!   `S` — shares of non-window links only rise within an epoch. A share
//!   observed once (at epoch start, at demotion, or at a sweep), deflated
//!   by one part in 10¹² to absorb round-off drift, therefore stays a
//!   valid lower bound with no per-touch maintenance at all. A far link
//!   is promoted back into the bucket the moment its bound can no longer
//!   prove it is above the freeze threshold, so the round-by-round
//!   minimum share, freeze set, freeze *order*, and subtraction order —
//!   and therefore every output bit — match
//!   [`weighted_max_min`](crate::maxmin::weighted_max_min) exactly.
//!
//! Bit-identity is pinned by the property tests in
//! `tests/proptests.rs`, which replay random arrival/departure/reroute/
//! clear/capacity-change sequences against `weighted_max_min` at every
//! epoch.
//!
//! What this deliberately does **not** do is reuse frozen *rates* across
//! epochs without proof: the freeze threshold window (`1 + 1e-12`
//! relative slack) couples links whose shares tie, so two components
//! that look independent can exchange members of a freeze round. Rates
//! are recomputed every epoch; the savings come from not rebuilding
//! state and not scanning links that provably cannot matter yet.

use std::fmt;

/// Why a group was rejected by
/// [`IncrementalAllocator::try_push_group`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AllocError {
    /// A subflow crosses no links (a real flow always occupies at least
    /// its two NIC links), or the group has no subflows at all.
    EmptyPath,
    /// The fairness weight is zero, negative, or not finite.
    NonPositiveWeight {
        /// The rejected weight.
        weight: f64,
    },
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyPath => write!(f, "entity with empty path"),
            Self::NonPositiveWeight { weight } => {
                write!(f, "entity weight must be positive (got {weight})")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Stable handle for a pushed group (one connection's subflow set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(u32);

/// Observability counters for the most recent
/// [`allocate`](IncrementalAllocator::allocate) call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocStats {
    /// Filling rounds the epoch took.
    pub rounds: u32,
    /// Links whose base state was re-folded because a structural edit
    /// (arrival / departure / reroute) or capacity change touched them.
    pub dirty_links: u32,
    /// Entities crossing at least one dirty link — the dirty set the
    /// epoch actually had to reconsider.
    pub dirty_entities: u32,
    /// Entities whose allocated rate came out bit-identical to the
    /// previous epoch's rate (reused state, recomputed cheaply).
    pub reused_rates: u32,
    /// Link scans performed by the two-tier loop.
    pub link_scans: u64,
    /// Link scans a from-scratch filling loop would have performed
    /// (`rounds × live links`); the gap is the work the near/far split
    /// saved.
    pub link_scans_naive: u64,
}

const DEAD_W: f64 = 1e-12;
/// Deflation applied to an observed share before it is stored as a far
/// bound, so accumulated round-off in later share updates (≲1e-14
/// relative over a realistic epoch) can never push the true share below
/// the stored bound. 1e-12 leaves two orders of magnitude of margin
/// while staying below the freeze-window slack, so a link provably above
/// the bound is also provably outside the freeze window.
const BOUND_DEFLATE: f64 = 1.0 - 1e-12;
/// Width of the bucket and of each promotion sweep, as a multiple of the
/// water level. Larger values scan more links per round but sweep the
/// far tier less often; the value only shapes performance — bit-identity
/// holds for any spread ≥ 1.
const TIER_SPREAD: f64 = 2.0;

/// Packed (group, entity) reference stored in per-link user lists. The
/// hot loops read only the low half (the dense entity id); edits read
/// the high half (the owning group).
#[inline]
fn pack(gid: u32, eid: u32) -> u64 {
    ((gid as u64) << 32) | eid as u64
}
#[inline]
fn unpack(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

/// Group facade over the flat entity arrays: a contiguous block of
/// `nsub` entity ids starting at `ent_base`, and a region of
/// `links_flat`. Blocks are retained when a slot is freed and reused
/// when the next occupant fits, so steady-state churn (the common case:
/// a departed connection's slot taken by an arrival of the same shape)
/// allocates nothing and keeps the hot footprint compact.
#[derive(Debug, Clone, Copy, Default)]
struct GroupSlot {
    /// Subflows currently held (entities `ent_base .. ent_base + nsub`).
    nsub: u32,
    /// First entity id of this group's block.
    ent_base: u32,
    /// Entities reserved at `ent_base` (≥ `nsub`).
    ent_cap: u32,
    /// Start of this group's region in `links_flat`.
    links_off: u32,
    /// Links currently used in the region.
    links_used: u32,
    /// Links reserved at `links_off` (≥ `links_used`).
    links_cap: u32,
}

/// Link tier within the current epoch.
const TIER_OUT: u8 = 0; // no active weight (or frozen out mid-epoch)
const TIER_BUCKET: u8 = 1;
const TIER_FAR: u8 = 2;

/// Epoch-local hot state of one link: remaining capacity and active
/// weight share a 16-byte record so the subtraction loop's
/// read-modify-write touches one cache line and never straddles two.
#[derive(Debug, Clone, Copy, Default)]
struct LinkHot {
    rem: f64,
    act: f64,
}

/// Tier bits of the per-link `flags` byte ([`TIER_OUT`] /
/// [`TIER_BUCKET`] / [`TIER_FAR`]).
const FLAG_TIER: u8 = 0b11;
/// Flag bit: already enqueued for the post-round refresh.
const FLAG_TMARK: u8 = 0b100;

/// Incremental max-min allocator: persistent link/entity state plus a
/// two-tier filling loop, bit-identical to
/// [`weighted_max_min`](crate::maxmin::weighted_max_min) over the
/// equivalent entity list.
///
/// Entities are pushed in **groups** with a shared weight (a connection
/// and its subflows). The allocation-relevant entity order is group
/// position order (then subflow index); the editing API mirrors the
/// containers hot callers actually keep — append, `swap_remove`,
/// ordered remove — so the caller's vector of connections and the
/// allocator's group order never diverge.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAllocator {
    slots: Vec<GroupSlot>,
    /// Group weight, dense by group id.
    weights: Vec<f64>,
    free: Vec<u32>,
    /// Position → group id (allocation order).
    order: Vec<u32>,
    /// Group id → position (`u32::MAX` when free).
    pos: Vec<u32>,
    n_entities: usize,

    // Flat per-entity state, parallel arrays indexed by entity id, so
    // the freeze/subtract pass streams dense memory instead of chasing
    // per-group heap allocations.
    /// Entity weight (the owning group's weight, duplicated for
    /// indirection-free reads in the hot loop).
    ent_w: Vec<f64>,
    /// Freeze stamp: frozen this epoch iff equal to the allocator's
    /// epoch counter. Stamps avoid a per-epoch reset pass.
    ent_frozen: Vec<u64>,
    /// Rate from the most recent epoch.
    ent_rate: Vec<f64>,
    /// Start of the entity's link list in `links_flat`.
    ent_off: Vec<u32>,
    /// Length of the entity's link list.
    ent_len: Vec<u32>,
    /// Link-list arena; each group owns one region (subflow lists
    /// back-to-back).
    links_flat: Vec<u32>,
    /// Build buffers for incoming groups: links concatenated, and
    /// per-subflow offsets into them (n+1 entries). Validated here
    /// before any allocator state is touched.
    scratch_links: Vec<u32>,
    scratch_off: Vec<u32>,

    // Per-link persistent state, grown on demand.
    /// Packed entity refs in entity order (sorted by (position, k)).
    users: Vec<Vec<u64>>,
    /// Left-fold of user weights in entity order (exactly the fold a
    /// from-scratch build computes).
    act_w_base: Vec<f64>,
    /// `max(cap, 0) / act_w_base` under the most recent capacities.
    init_share: Vec<f64>,
    /// Bit pattern of the capacity each `init_share` was computed under.
    cap_bits: Vec<u64>,
    /// Links whose base weight is above [`DEAD_W`], maintained by
    /// [`refold_dirty`](Self::refold_dirty) so epochs never touch the
    /// (mostly idle) full link range.
    live_links: Vec<u32>,
    /// Dense index into `live_links` (`u32::MAX` when not live).
    live_pos: Vec<u32>,
    dirty: Vec<u32>,
    dirty_mark: Vec<bool>,
    /// Scratch for deduplicating per-call link visits in edits.
    visit_mark: Vec<bool>,

    // Epoch scratch, kept allocated.
    /// Monotone epoch counter matched against `ent_frozen`.
    epoch: u64,
    hot: Vec<LinkHot>,
    /// Per-link tier + touched mark, packed in one byte so the subtract
    /// loop reads a single side array. Meaningful only for links the
    /// current epoch's partition visited (all live ones).
    flags: Vec<u8>,
    bucket_links: Vec<u32>,
    bucket_share: Vec<f64>,
    /// Dense index of each bucket link (`bucket_pos[l]` valid iff
    /// `tier[l] == TIER_BUCKET`).
    bucket_pos: Vec<u32>,
    far_links: Vec<u32>,
    /// Certified lower bound on each far link's share, parallel to
    /// `far_links`.
    far_bound: Vec<f64>,
    touched: Vec<u32>,
    win_links: Vec<u32>,

    stats: AllocStats,
}

impl IncrementalAllocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of groups currently held.
    pub fn num_groups(&self) -> usize {
        self.order.len()
    }

    /// Number of entities (subflows) currently held.
    pub fn num_entities(&self) -> usize {
        self.n_entities
    }

    /// Counters for the most recent [`allocate`](Self::allocate) call.
    pub fn stats(&self) -> &AllocStats {
        &self.stats
    }

    /// The group id at allocation position `i`.
    pub fn group_at(&self, i: usize) -> GroupId {
        GroupId(self.order[i])
    }

    /// Per-subflow rates of a group from the most recent epoch.
    pub fn group_rates(&self, g: GroupId) -> &[f64] {
        let s = self.slots[g.0 as usize];
        &self.ent_rate[s.ent_base as usize..(s.ent_base + s.nsub) as usize]
    }

    /// Sum of a group's subflow rates, folded in subflow order — the
    /// same partial sums a flat `rates × owner` fold produces for a
    /// contiguous group.
    pub fn group_rate_sum(&self, g: GroupId) -> f64 {
        self.group_rates(g).iter().sum()
    }

    #[cfg(test)]
    fn sub_links(&self, g: GroupId, k: u32) -> &[u32] {
        let eid = (self.slots[g.0 as usize].ent_base + k) as usize;
        let lo = self.ent_off[eid] as usize;
        &self.links_flat[lo..lo + self.ent_len[eid] as usize]
    }

    fn ensure_links(&mut self, l: usize) {
        if l >= self.users.len() {
            let n = l + 1;
            self.users.resize_with(n, Vec::new);
            self.act_w_base.resize(n, 0.0);
            self.init_share.resize(n, 0.0);
            self.cap_bits.resize(n, f64::NAN.to_bits());
            self.live_pos.resize(n, u32::MAX);
            self.dirty_mark.resize(n, false);
            self.visit_mark.resize(n, false);
        }
    }

    #[inline]
    fn mark_dirty(&mut self, l: u32) {
        if !self.dirty_mark[l as usize] {
            self.dirty_mark[l as usize] = true;
            self.dirty.push(l);
        }
    }

    /// Validates and buffers an incoming group's subflow paths into the
    /// scratch arrays without touching allocator state.
    fn buffer_subflows<I, P>(&mut self, subflows: I) -> Result<(), AllocError>
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = usize>,
    {
        self.scratch_links.clear();
        self.scratch_off.clear();
        self.scratch_off.push(0);
        for path in subflows {
            let before = self.scratch_links.len();
            self.scratch_links
                .extend(path.into_iter().map(|l| l as u32));
            if self.scratch_links.len() == before {
                return Err(AllocError::EmptyPath);
            }
            self.scratch_off
                .push(u32::try_from(self.scratch_links.len()).expect("offsets fit u32"));
        }
        if self.scratch_off.len() < 2 {
            return Err(AllocError::EmptyPath);
        }
        Ok(())
    }

    /// Installs the buffered subflows into `gid`'s slot, reusing its
    /// retained entity block and link region when they fit and claiming
    /// fresh space at the arena ends otherwise.
    fn place_buffered(&mut self, gid: u32) {
        let gi = gid as usize;
        let nsub = self.scratch_off.len() - 1;
        let total = self.scratch_links.len();
        let weight = self.weights[gi];
        let mut s = self.slots[gi];
        if (s.ent_cap as usize) < nsub {
            s.ent_base = u32::try_from(self.ent_w.len()).expect("entity base fits u32");
            s.ent_cap = nsub as u32;
            let n = self.ent_w.len() + nsub;
            self.ent_w.resize(n, 0.0);
            self.ent_frozen.resize(n, 0);
            self.ent_rate.resize(n, 0.0);
            self.ent_off.resize(n, 0);
            self.ent_len.resize(n, 0);
        }
        if (s.links_cap as usize) < total {
            s.links_off = u32::try_from(self.links_flat.len()).expect("link offset fits u32");
            s.links_cap = total as u32;
            self.links_flat.resize(self.links_flat.len() + total, 0);
        }
        s.nsub = nsub as u32;
        s.links_used = total as u32;
        let lo = s.links_off as usize;
        self.links_flat[lo..lo + total].copy_from_slice(&self.scratch_links);
        for k in 0..nsub {
            let eid = s.ent_base as usize + k;
            self.ent_w[eid] = weight;
            self.ent_frozen[eid] = 0;
            self.ent_rate[eid] = 0.0;
            self.ent_off[eid] = (lo + self.scratch_off[k] as usize) as u32;
            self.ent_len[eid] = self.scratch_off[k + 1] - self.scratch_off[k];
        }
        self.slots[gi] = s;
    }

    /// Appends a group at the end of the allocation order. Panics on an
    /// empty subflow set, an empty subflow path, or a non-positive
    /// weight; see [`try_push_group`](Self::try_push_group).
    pub fn push_group<I, P>(&mut self, weight: f64, subflows: I) -> GroupId
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = usize>,
    {
        match self.try_push_group(weight, subflows) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Appends a group, rejecting bad input with a typed error. On error
    /// the allocator is unchanged.
    pub fn try_push_group<I, P>(&mut self, weight: f64, subflows: I) -> Result<GroupId, AllocError>
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = usize>,
    {
        if weight.is_nan() || weight <= 0.0 {
            return Err(AllocError::NonPositiveWeight { weight });
        }
        // Buffer first: a rejected group must leave no trace, and after
        // this point nothing can fail.
        self.buffer_subflows(subflows)?;
        let gid = match self.free.pop() {
            Some(g) => g,
            None => {
                self.slots.push(GroupSlot::default());
                self.weights.push(0.0);
                self.pos.push(u32::MAX);
                u32::try_from(self.slots.len() - 1).expect("group ids fit u32")
            }
        };
        self.weights[gid as usize] = weight;
        self.place_buffered(gid);
        self.pos[gid as usize] = u32::try_from(self.order.len()).expect("positions fit u32");
        self.order.push(gid);
        // New group holds the maximum position, so plain appends keep
        // every user list sorted by (position, subflow).
        let s = self.slots[gid as usize];
        for eid in s.ent_base..s.ent_base + s.nsub {
            let lo = self.ent_off[eid as usize] as usize;
            let hi = lo + self.ent_len[eid as usize] as usize;
            for idx in lo..hi {
                let l = self.links_flat[idx] as usize;
                self.ensure_links(l);
                self.users[l].push(pack(gid, eid));
                self.mark_dirty(l as u32);
            }
        }
        self.n_entities += s.nsub as usize;
        Ok(GroupId(gid))
    }

    /// Deletes every user-list entry of `gid`, marking its links dirty.
    fn detach_group(&mut self, gid: u32) {
        let s = self.slots[gid as usize];
        let lo = s.links_off as usize;
        let hi = lo + s.links_used as usize;
        for idx in lo..hi {
            let l = self.links_flat[idx];
            let li = l as usize;
            if !self.visit_mark[li] {
                self.visit_mark[li] = true;
                self.users[li].retain(|&e| (e >> 32) as u32 != gid);
                self.mark_dirty(l);
            }
        }
        for idx in lo..hi {
            self.visit_mark[self.links_flat[idx] as usize] = false;
        }
    }

    /// Re-inserts `gid`'s user-list entries at its current position,
    /// assuming they are absent. Lists stay sorted by (position, k).
    fn attach_group(&mut self, gid: u32) {
        let p = self.pos[gid as usize];
        let s = self.slots[gid as usize];
        for k in 0..s.nsub {
            let eid = s.ent_base + k;
            let lo = self.ent_off[eid as usize] as usize;
            let hi = lo + self.ent_len[eid as usize] as usize;
            for idx in lo..hi {
                let l = self.links_flat[idx] as usize;
                self.ensure_links(l);
                // First entry strictly after (p, k) in (position, k)
                // order; duplicates of (gid, k) on the same link cannot
                // exist (a path visits a link once).
                let at = {
                    let pos = &self.pos;
                    let slots = &self.slots;
                    self.users[l]
                        .iter()
                        .position(|&e| {
                            let (og, oe) = unpack(e);
                            let ok = oe - slots[og as usize].ent_base;
                            (pos[og as usize], ok) > (p, k)
                        })
                        .unwrap_or(self.users[l].len())
                };
                self.users[l].insert(at, pack(gid, eid));
                self.mark_dirty(l as u32);
            }
        }
    }

    /// Removes the group at position `i`, moving the last group into its
    /// place — the mirror of `Vec::swap_remove` on the caller's side.
    pub fn swap_remove_group(&mut self, i: usize) {
        let rid = self.order[i];
        let last = self.order.len() - 1;
        let mid = self.order[last];
        self.detach_group(rid);
        self.order.swap_remove(i);
        if mid != rid {
            // The moved group's position changes, so its entries must be
            // re-placed (and its links re-folded: the fold order of every
            // list it appears in changed).
            self.detach_group(mid);
            self.pos[mid as usize] = i as u32;
            self.attach_group(mid);
        }
        self.free_slot(rid);
    }

    /// Removes the group at position `i`, shifting later groups down —
    /// the mirror of `Vec::remove`. Relative order (and therefore every
    /// other link's weight fold) is unchanged, so only the removed
    /// group's links go dirty.
    pub fn remove_group_ordered(&mut self, i: usize) {
        let rid = self.order[i];
        self.detach_group(rid);
        self.order.remove(i);
        for p in i..self.order.len() {
            self.pos[self.order[p] as usize] = p as u32;
        }
        self.free_slot(rid);
    }

    /// Replaces the paths (and weight) of the group at position `i`,
    /// keeping its position — the reroute edge. Panics on bad input like
    /// [`push_group`](Self::push_group).
    pub fn replace_group<I, P>(&mut self, i: usize, weight: f64, subflows: I)
    where
        I: IntoIterator<Item = P>,
        P: IntoIterator<Item = usize>,
    {
        assert!(weight > 0.0, "entity weight must be positive");
        let gid = self.order[i];
        self.detach_group(gid);
        self.n_entities -= self.slots[gid as usize].nsub as usize;
        if self.buffer_subflows(subflows).is_err() {
            panic!("entity with empty path");
        }
        self.weights[gid as usize] = weight;
        self.place_buffered(gid);
        self.n_entities += self.slots[gid as usize].nsub as usize;
        self.attach_group(gid);
    }

    /// Drops every group, keeping scratch capacity and marking all
    /// previously-occupied links dirty — the full-invalidation escape
    /// hatch for callers whose population changed in ways the edit API
    /// does not track (e.g. a batch of reroutes and removals at once).
    pub fn clear(&mut self) {
        let order = std::mem::take(&mut self.order);
        for &gid in &order {
            let s = self.slots[gid as usize];
            let lo = s.links_off as usize;
            for idx in lo..lo + s.links_used as usize {
                let l = self.links_flat[idx];
                if !self.users[l as usize].is_empty() {
                    self.users[l as usize].clear();
                    self.mark_dirty(l);
                }
            }
            self.free_slot(gid);
        }
        self.order = order;
        self.order.clear();
        debug_assert_eq!(self.n_entities, 0);
    }

    fn free_slot(&mut self, gid: u32) {
        let slot = &mut self.slots[gid as usize];
        self.n_entities -= slot.nsub as usize;
        // The entity block and link region stay reserved for the slot's
        // next occupant.
        slot.nsub = 0;
        slot.links_used = 0;
        self.pos[gid as usize] = u32::MAX;
        self.free.push(gid);
    }

    /// Re-folds the base weight of every dirty link from its user list.
    ///
    /// The fold runs in entity order — the exact sequence of `+=`
    /// operations a from-scratch build performs for that link — so the
    /// result is bit-identical to rebuilding. (Subtracting a departed
    /// weight instead would not be: floating-point addition is not
    /// associative enough to undo a fold term.)
    fn refold_dirty(&mut self, capacity: &[f64]) {
        self.stats.dirty_links = u32::try_from(self.dirty.len()).expect("dirty count fits u32");
        let mut dirty_entities = 0u32;
        let dirty = std::mem::take(&mut self.dirty);
        for &l in &dirty {
            let li = l as usize;
            self.dirty_mark[li] = false;
            let mut w = 0.0f64;
            for &e in &self.users[li] {
                w += self.ent_w[e as u32 as usize];
            }
            dirty_entities += u32::try_from(self.users[li].len()).expect("user count fits u32");
            self.act_w_base[li] = w;
            let cap = capacity.get(li).copied().unwrap_or(0.0);
            self.cap_bits[li] = cap.to_bits();
            self.init_share[li] = if w > DEAD_W {
                cap.max(0.0) / w
            } else {
                f64::INFINITY
            };
            // Maintain the persistent live list so allocate() never has
            // to walk the full link range.
            let was_live = self.live_pos[li] != u32::MAX;
            let now_live = w > DEAD_W;
            if now_live && !was_live {
                self.live_pos[li] =
                    u32::try_from(self.live_links.len()).expect("live count fits u32");
                self.live_links.push(l);
            } else if !now_live && was_live {
                let d = self.live_pos[li] as usize;
                self.live_links.swap_remove(d);
                if d < self.live_links.len() {
                    self.live_pos[self.live_links[d] as usize] = d as u32;
                }
                self.live_pos[li] = u32::MAX;
            }
        }
        self.dirty = dirty;
        self.dirty.clear();
        self.stats.dirty_entities = dirty_entities;
    }

    /// Computes the weighted max-min fair rate of every held entity,
    /// bit-identical to a from-scratch
    /// [`weighted_max_min`](crate::maxmin::weighted_max_min) over the
    /// equivalent entity list (groups in position order, subflows in
    /// order within each group).
    ///
    /// Rates are read back per group via
    /// [`group_rates`](Self::group_rates) /
    /// [`group_rate_sum`](Self::group_rate_sum); they stay valid until
    /// the next structural edit or `allocate` call.
    pub fn allocate(&mut self, capacity: &[f64]) {
        self.stats = AllocStats::default();
        self.epoch += 1;
        let epoch = self.epoch;
        self.ensure_links(capacity.len().saturating_sub(1));
        self.refold_dirty(capacity);
        let nlinks = self.users.len();

        let mut remaining = self.n_entities;
        if remaining == 0 {
            return;
        }

        // Stale tiers and marks on previously-used entries are harmless:
        // every read goes through a live link, and the partition below
        // re-seeds the flags of every live link.
        self.hot.resize(nlinks, LinkHot::default());
        self.flags.resize(nlinks, 0);
        self.bucket_pos.resize(nlinks, 0);

        // First pass over the live list: fold capacity changes into the
        // cached epoch-start shares (a failed or recovered link is just
        // a capacity edit) and find the starting water level.
        let mut min_init = f64::INFINITY;
        for li in 0..self.live_links.len() {
            let l = self.live_links[li] as usize;
            let cap = capacity.get(l).copied().unwrap_or(0.0);
            if cap.to_bits() != self.cap_bits[l] {
                self.cap_bits[l] = cap.to_bits();
                self.init_share[l] = cap.max(0.0) / self.act_w_base[l];
            }
            if self.init_share[l] < min_init {
                min_init = self.init_share[l];
            }
        }

        // Second pass: seed the hot state and partition. Links within
        // TIER_SPREAD of the water level go to the bucket (exact shares,
        // scanned every round); the rest go far, their epoch-start share
        // — deflated — serving as the certified bound.
        self.bucket_links.clear();
        self.bucket_share.clear();
        self.far_links.clear();
        self.far_bound.clear();
        let h0 = if min_init.is_finite() {
            min_init * TIER_SPREAD
        } else {
            f64::INFINITY
        };
        let mut far_floor = f64::INFINITY;
        for li in 0..self.live_links.len() {
            let l = self.live_links[li] as usize;
            self.hot[l] = LinkHot {
                rem: f64::from_bits(self.cap_bits[l]),
                act: self.act_w_base[l],
            };
            let s = self.init_share[l];
            if s <= h0 {
                self.flags[l] = TIER_BUCKET;
                self.bucket_pos[l] =
                    u32::try_from(self.bucket_links.len()).expect("bucket fits u32");
                self.bucket_links.push(l as u32);
                self.bucket_share.push(s);
            } else {
                self.flags[l] = TIER_FAR;
                self.far_links.push(l as u32);
                let b = s * BOUND_DEFLATE;
                self.far_bound.push(b);
                if b < far_floor {
                    far_floor = b;
                }
            }
        }
        let live_at_start = self.live_links.len() as u64;

        self.touched.clear();

        let mut rounds = 0u32;
        let mut scans = 0u64;
        let mut reused_total = 0u32;
        while remaining > 0 {
            rounds += 1;
            // Candidate water level over the bucket. Far links are all
            // provably above it (their certified bounds sit above the
            // threshold), so the bucket minimum is the global minimum.
            let mut min_share = f64::INFINITY;
            for &s in &self.bucket_share {
                min_share = min_share.min(s);
            }
            scans += self.bucket_share.len() as u64;
            let mut threshold = min_share * (1.0 + 1e-12) + 1e-15;
            // Sweep-promote far links whose certified bound can no
            // longer prove they are above the threshold. Each sweep
            // evaluates everything within TIER_SPREAD of the water
            // level: candidates truly near it join the bucket, stale
            // bounds are re-certified at today's (higher) share, so the
            // floor rises ~TIER_SPREAD per sweep and sweeps stay rare.
            // Promotion can lower the water level, so re-check until
            // the floor clears the threshold.
            loop {
                if (min_share.is_finite() && threshold < far_floor) || self.far_links.is_empty() {
                    break;
                }
                let target = if min_share.is_finite() {
                    threshold * TIER_SPREAD
                } else {
                    far_floor * TIER_SPREAD
                };
                scans += self.far_links.len() as u64;
                let mut new_floor = f64::INFINITY;
                let mut kept = 0usize;
                for fi in 0..self.far_links.len() {
                    let l = self.far_links[fi] as usize;
                    let b = self.far_bound[fi];
                    if b <= target {
                        let h = self.hot[l];
                        if h.act > DEAD_W {
                            let share = h.rem.max(0.0) / h.act;
                            if share <= target {
                                self.flags[l] = TIER_BUCKET;
                                self.bucket_pos[l] = u32::try_from(self.bucket_links.len())
                                    .expect("bucket fits u32");
                                self.bucket_links.push(l as u32);
                                self.bucket_share.push(share);
                                if share < min_share {
                                    min_share = share;
                                }
                            } else {
                                let nb = share * BOUND_DEFLATE;
                                self.far_links[kept] = l as u32;
                                self.far_bound[kept] = nb;
                                kept += 1;
                                if nb < new_floor {
                                    new_floor = nb;
                                }
                            }
                        } else {
                            // Every user froze via other links; drop it.
                            self.flags[l] = TIER_OUT;
                        }
                    } else {
                        self.far_links[kept] = l as u32;
                        self.far_bound[kept] = b;
                        kept += 1;
                        if b < new_floor {
                            new_floor = b;
                        }
                    }
                }
                self.far_links.truncate(kept);
                self.far_bound.truncate(kept);
                far_floor = new_floor;
                threshold = min_share * (1.0 + 1e-12) + 1e-15;
            }
            if !min_share.is_finite() {
                break; // nothing live carries weight; leftover rates stay 0
            }

            // Freeze window: bucket links at the water level, ascending
            // link index, then users in entity order — the reference
            // loop's exact victim sequence.
            self.win_links.clear();
            for (i, &s) in self.bucket_share.iter().enumerate() {
                if s <= threshold {
                    self.win_links.push(self.bucket_links[i]);
                }
            }
            if self.win_links.len() > 1 {
                self.win_links.sort_unstable();
            }

            // Fused freeze-and-subtract: discovery order over the
            // window's user lists IS victim order, so subtracting inline
            // performs the exact floating-point sequence of the
            // reference's collect-then-subtract (victim order, link
            // order within each entity). Every operand is a dense array
            // indexed by entity id — no pointer chasing per victim.
            let mut frozen_now = 0usize;
            {
                let users = &self.users;
                let ent_frozen = &mut self.ent_frozen;
                let ent_w = &self.ent_w;
                let ent_rate = &mut self.ent_rate;
                let ent_off = &self.ent_off;
                let ent_len = &self.ent_len;
                let links_flat = &self.links_flat;
                let hot = &mut self.hot;
                let flags = &mut self.flags;
                let touched = &mut self.touched;
                for &wl in &self.win_links {
                    for &e in &users[wl as usize] {
                        let eid = e as u32 as usize;
                        if ent_frozen[eid] == epoch {
                            continue;
                        }
                        ent_frozen[eid] = epoch;
                        frozen_now += 1;
                        let w = ent_w[eid];
                        let rate = w * min_share;
                        if ent_rate[eid].to_bits() == rate.to_bits() {
                            reused_total += 1;
                        }
                        ent_rate[eid] = rate;
                        let lo = ent_off[eid] as usize;
                        let hi = lo + ent_len[eid] as usize;
                        for &l in &links_flat[lo..hi] {
                            let li = l as usize;
                            let h = &mut hot[li];
                            h.rem -= rate;
                            h.act -= w;
                            // Only bucket links need the post-round
                            // refresh; a touched far link's certified
                            // bound stays valid (shares only rise), so
                            // it never enters the queue at all.
                            if flags[li] == TIER_BUCKET {
                                flags[li] |= FLAG_TMARK;
                                touched.push(l);
                            }
                        }
                    }
                }
            }
            debug_assert!(frozen_now > 0);
            remaining -= frozen_now;

            // Refresh touched bucket links once, from their final
            // post-round values (identical bits to a per-scan recompute,
            // since the operands are identical). Touched *far* links
            // need nothing: a non-window link's share only rises, so
            // its stored bound stays valid. Bucket links whose share
            // climbed out of the bucket demote, the observed share
            // becoming their certified bound.
            let demote_h = threshold * TIER_SPREAD;
            for ti in 0..self.touched.len() {
                let l = self.touched[ti] as usize;
                self.flags[l] &= !FLAG_TMARK;
                debug_assert_eq!(self.flags[l] & FLAG_TIER, TIER_BUCKET);
                let h = self.hot[l];
                let drop_at = if h.act > DEAD_W {
                    let share = h.rem.max(0.0) / h.act;
                    if share > demote_h {
                        self.flags[l] = TIER_FAR;
                        self.far_links.push(l as u32);
                        let b = share * BOUND_DEFLATE;
                        self.far_bound.push(b);
                        if b < far_floor {
                            far_floor = b;
                        }
                        Some(self.bucket_pos[l] as usize)
                    } else {
                        self.bucket_share[self.bucket_pos[l] as usize] = share;
                        None
                    }
                } else {
                    // Dead: every user froze this round; drop it.
                    self.flags[l] = TIER_OUT;
                    Some(self.bucket_pos[l] as usize)
                };
                if let Some(d) = drop_at {
                    self.bucket_links.swap_remove(d);
                    self.bucket_share.swap_remove(d);
                    if d < self.bucket_links.len() {
                        self.bucket_pos[self.bucket_links[d] as usize] = d as u32;
                    }
                }
            }
            self.touched.clear();
        }
        self.stats.rounds = rounds;
        self.stats.reused_rates = reused_total;
        self.stats.link_scans = scans;
        self.stats.link_scans_naive = rounds as u64 * live_at_start;
        // Entities never frozen (every link they cross died) read as 0,
        // like the reference's zero-initialized rate vector.
        if remaining > 0 {
            for &gid in &self.order {
                let s = self.slots[gid as usize];
                for eid in s.ent_base..s.ent_base + s.nsub {
                    if self.ent_frozen[eid as usize] != epoch {
                        self.ent_rate[eid as usize] = 0.0;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::{weighted_max_min, Entity};

    /// Flattens the allocator's current groups into the equivalent
    /// from-scratch entity list (position order, subflows in order).
    fn flatten(a: &IncrementalAllocator) -> Vec<Entity> {
        let mut out = Vec::new();
        for i in 0..a.num_groups() {
            let g = a.group_at(i);
            let s = a.slots[g.0 as usize];
            for k in 0..s.nsub {
                out.push(Entity {
                    weight: a.weights[g.0 as usize],
                    links: a.sub_links(g, k).iter().map(|&l| l as usize).collect(),
                });
            }
        }
        out
    }

    fn assert_matches_reference(a: &mut IncrementalAllocator, caps: &[f64]) {
        let want = weighted_max_min(caps, &flatten(a));
        a.allocate(caps);
        let mut wi = 0usize;
        for i in 0..a.num_groups() {
            let g = a.group_at(i);
            for &r in a.group_rates(g) {
                assert_eq!(
                    r.to_bits(),
                    want[wi].to_bits(),
                    "entity {wi} diverged: {r} vs {}",
                    want[wi]
                );
                wi += 1;
            }
        }
        assert_eq!(wi, want.len());
    }

    #[test]
    fn push_allocate_matches_reference() {
        let mut a = IncrementalAllocator::new();
        let caps = vec![10.0, 4.0, 7.3, 10.0];
        a.push_group(1.0, [vec![0usize, 1], vec![0, 2]]);
        a.push_group(2.5, [vec![1usize, 3]]);
        a.push_group(0.5, [vec![2usize], vec![3]]);
        assert_matches_reference(&mut a, &caps);
        assert_eq!(a.num_groups(), 3);
        assert_eq!(a.num_entities(), 5);
    }

    #[test]
    fn rounds_counter_tracks_filling_iterations() {
        let mut a = IncrementalAllocator::new();
        // Two entities on one shared link: a single filling round.
        a.push_group(1.0, [vec![0usize]]);
        a.push_group(1.0, [vec![0usize]]);
        a.allocate(&[10.0]);
        assert_eq!(a.stats().rounds, 1);
        // Asymmetric two-link chain: the 4.0 link freezes first, then
        // the leftover entity fills the 10.0 link — two rounds.
        a.clear();
        a.push_group(1.0, [vec![0usize, 1]]);
        a.push_group(1.0, [vec![1usize]]);
        a.allocate(&[4.0, 10.0]);
        assert_eq!(a.stats().rounds, 2);
    }

    #[test]
    fn edits_stay_bit_identical() {
        let mut a = IncrementalAllocator::new();
        let mut caps = vec![10.0, 10.0, 4.0, 7.0, 12.0];
        a.push_group(1.0, [vec![0usize, 2], vec![1, 3]]);
        a.push_group(1.0, [vec![2usize, 4]]);
        a.push_group(3.0, [vec![0usize], vec![4]]);
        assert_matches_reference(&mut a, &caps);
        // Departure via swap_remove (last group moves into slot 0).
        a.swap_remove_group(0);
        assert_matches_reference(&mut a, &caps);
        // Arrival.
        a.push_group(0.5, [vec![1usize, 2, 3]]);
        assert_matches_reference(&mut a, &caps);
        // Capacity change (link failure).
        caps[2] = 0.0;
        assert_matches_reference(&mut a, &caps);
        // Reroute: replace paths in place.
        a.replace_group(1, 0.5, [vec![0usize, 4], vec![3]]);
        assert_matches_reference(&mut a, &caps);
        // Ordered removal (park).
        a.remove_group_ordered(0);
        assert_matches_reference(&mut a, &caps);
        // Recovery.
        caps[2] = 4.0;
        assert_matches_reference(&mut a, &caps);
    }

    #[test]
    fn empty_allocator_is_a_noop() {
        let mut a = IncrementalAllocator::new();
        a.allocate(&[5.0, 5.0]);
        assert_eq!(a.num_entities(), 0);
        assert_eq!(a.stats().rounds, 0);
    }

    #[test]
    fn group_rate_sum_folds_in_subflow_order() {
        let mut a = IncrementalAllocator::new();
        let caps = vec![9.0];
        let g = a.push_group(1.0, [vec![0usize], vec![0], vec![0]]);
        a.allocate(&caps);
        let sum: f64 = a.group_rates(g).iter().sum();
        assert_eq!(a.group_rate_sum(g).to_bits(), sum.to_bits());
        assert!((sum - 9.0).abs() < 1e-9);
    }

    #[test]
    fn stats_report_dirty_and_reuse() {
        let mut a = IncrementalAllocator::new();
        let caps = vec![10.0, 10.0, 10.0];
        a.push_group(1.0, [vec![0usize, 1]]);
        a.push_group(1.0, [vec![2usize]]);
        a.allocate(&caps);
        assert!(a.stats().dirty_links >= 3);
        // Nothing changed: no dirty links, every rate bit-stable.
        a.allocate(&caps);
        assert_eq!(a.stats().dirty_links, 0);
        assert_eq!(a.stats().reused_rates, 2);
        assert!(a.stats().rounds >= 1);
    }

    #[test]
    fn rejects_bad_groups_with_typed_errors() {
        let mut a = IncrementalAllocator::new();
        assert_eq!(
            a.try_push_group(0.0, [vec![0usize]]),
            Err(AllocError::NonPositiveWeight { weight: 0.0 })
        );
        assert_eq!(
            a.try_push_group(1.0, [Vec::<usize>::new()]),
            Err(AllocError::EmptyPath)
        );
        assert_eq!(
            a.try_push_group(1.0, Vec::<Vec<usize>>::new()),
            Err(AllocError::EmptyPath)
        );
        // Failed pushes leave no trace.
        assert_eq!(a.num_groups(), 0);
        let g = a.push_group(1.0, [vec![0usize]]).0;
        assert_eq!(g, 0);
    }

    #[test]
    #[should_panic(expected = "empty path")]
    fn rejects_empty_links() {
        IncrementalAllocator::new().push_group(1.0, [std::iter::empty::<usize>()]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn rejects_bad_weight() {
        IncrementalAllocator::new().push_group(0.0, [[0usize]]);
    }

    #[test]
    fn dead_link_leaves_unroutable_entity_at_zero() {
        let mut a = IncrementalAllocator::new();
        // Entity whose only link has zero capacity still freezes at
        // share zero (reference semantics); an entity whose link carries
        // no weight at all never freezes and reads zero.
        let caps = vec![0.0, 10.0];
        a.push_group(1.0, [vec![0usize]]);
        a.push_group(1.0, [vec![1usize]]);
        assert_matches_reference(&mut a, &caps);
    }

    #[test]
    fn slot_reuse_keeps_blocks_compact() {
        // Churn one slot through shapes that shrink, grow, and shrink
        // again; rates must stay correct and the reused block must not
        // leak stale state into the fold.
        let mut a = IncrementalAllocator::new();
        let caps = vec![8.0, 8.0, 8.0];
        a.push_group(1.0, [vec![0usize], vec![1], vec![2]]);
        assert_matches_reference(&mut a, &caps);
        a.swap_remove_group(0);
        // Smaller occupant in the reused slot.
        a.push_group(2.0, [vec![1usize]]);
        assert_matches_reference(&mut a, &caps);
        // Larger occupant forces a fresh block.
        a.replace_group(0, 2.0, [vec![0usize, 1], vec![1, 2], vec![0, 2], vec![0]]);
        assert_matches_reference(&mut a, &caps);
        a.clear();
        assert_eq!(a.num_entities(), 0);
        a.push_group(1.0, [vec![2usize]]);
        assert_matches_reference(&mut a, &caps);
    }
}
