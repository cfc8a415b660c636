//! Whole-system invariant checker.
//!
//! These are the properties the paper's design hinges on (§II-B), expressed
//! as machine-checkable predicates over the entire simulated state:
//!
//! 1. **Deterministic Location Information** — every active LI names a slot
//!    that holds exactly the expected line, with serveable (non-stale) data.
//! 2. **Metadata inclusion** — every node-resident line's region is in the
//!    node's MD2; every MD2 region is in MD3 (with the PB bit set); PB bits
//!    exactly mirror MD2 residency; every LLC-resident line's region is in
//!    MD3 with the line marked in the entry's `llc_seen` index.
//! 3. **Single master** — at most one master copy of a line exists anywhere;
//!    lines with no cached master are mastered by memory.
//! 4. **Tracking-pointer coherence** — MD2 TPs and MD1 entries are in
//!    one-to-one correspondence.
//! 5. **Value coherence** — every serveable copy carries the globally latest
//!    version; when memory is the master it holds the latest version.
//!
//! The checker is exhaustive (it sweeps every structure) and intended for
//! tests; it is far too slow to run per access.

use std::collections::HashMap;

use d2m_common::addr::{LineAddr, RegionAddr, LINES_PER_REGION};

use crate::li::Li;
use crate::meta::Md1Side;
use crate::system::{ArrKind, D2mSystem, MdRef};

impl D2mSystem {
    /// Verifies every invariant; returns a description of the first
    /// violation found.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_pb_md2_mirror()?;
        self.check_tracking_pointers()?;
        self.check_active_li_determinism()?;
        self.check_md3_li_determinism()?;
        self.check_data_inclusion()?;
        self.check_single_master_and_versions()?;
        self.check_no_orphan_masters()?;
        Ok(())
    }

    /// Every LLC master slot must be reachable: by MD3's LI, by some node's
    /// active LI, or through some copy's RP chain. An orphaned master would
    /// eventually be re-fetched from memory, creating a second master.
    fn check_no_orphan_masters(&self) -> Result<(), String> {
        for slice in 0..self.llc.banks() {
            for (_, way_all, key, dl) in self.llc.iter_bank(slice) {
                if !dl.master {
                    continue;
                }
                let line = LineAddr::new(key);
                let region = line.region();
                let off = usize::from(line.region_offset());
                let me = {
                    // Reconstruct this slot's LI name.
                    let set_check = self.llc_set(line, slice);
                    let way = self.llc.way_of(slice, set_check, key).expect("present");
                    debug_assert_eq!(way, way_all);
                    self.li_of_llc(slice, way)
                };
                let mut referenced = false;
                if let Some(e3) = self
                    .md3
                    .peek(self.md3.set_index(region.raw()), region.raw())
                {
                    if e3.li.get(off, self.enc) == me {
                        referenced = true;
                    }
                }
                for n in 0..self.nodes_count() {
                    if referenced {
                        break;
                    }
                    if let Some(md) = self.find_active_md(n, region) {
                        if self.li_get(n, md, off) == me {
                            referenced = true;
                            break;
                        }
                    }
                    if let Some((kind, s, w)) = self.node_slot_of(n, line) {
                        if self.arr(kind).at(n, s, w).map(|(_, d)| d.rp) == Some(me) {
                            referenced = true;
                            break;
                        }
                    }
                    if self.feats.near_side {
                        let s = self.llc_set(line, n);
                        if let Some(w) = self.llc.way_of(n, s, key) {
                            if self.llc.at(n, s, w).map(|(_, d)| d.rp) == Some(me) {
                                referenced = true;
                                break;
                            }
                        }
                    }
                }
                if !referenced {
                    return Err(format!(
                        "orphan master for line {key:#x} at slice {slice} ({me:?})"
                    ));
                }
            }
        }
        Ok(())
    }

    fn nodes_count(&self) -> usize {
        self.cfg.nodes
    }

    fn check_pb_md2_mirror(&self) -> Result<(), String> {
        // PB bit set ⇔ node has an MD2 entry.
        for n in 0..self.nodes_count() {
            for (_, _, key, _) in self.md2.iter_bank(n) {
                let set3 = self.md3.set_index(key);
                let Some(e3) = self.md3.peek(set3, key) else {
                    return Err(format!("MD2 region {key:#x} at node {n} missing from MD3"));
                };
                if e3.pb & (1 << n) == 0 {
                    return Err(format!(
                        "node {n} tracks region {key:#x} but its PB bit is clear"
                    ));
                }
            }
        }
        for (_, _, key, e3) in self.md3.iter() {
            for n in 0..self.nodes_count() {
                if e3.pb & (1 << n) != 0 && self.md2.peek(n, self.md2.set_index(key), key).is_none()
                {
                    return Err(format!(
                        "PB bit set for node {n} on region {key:#x} without an MD2 entry"
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_tracking_pointers(&self) -> Result<(), String> {
        for n in 0..self.nodes_count() {
            for (_, _, key, e2) in self.md2.iter_bank(n) {
                if let Some(tp) = e2.tp {
                    let arr = match tp.side {
                        Md1Side::Instruction => &self.md1i,
                        Md1Side::Data => &self.md1d,
                    };
                    match arr.at(n, tp.set as usize, tp.way as usize) {
                        Some((_, e1)) if e1.region.raw() == key => {}
                        _ => {
                            return Err(format!(
                                "node {n} MD2 TP for region {key:#x} names a wrong MD1 slot"
                            ))
                        }
                    }
                }
            }
            for (side, arr) in [
                (Md1Side::Instruction, &self.md1i),
                (Md1Side::Data, &self.md1d),
            ] {
                for (set1, way1, _, e1) in arr.iter_bank(n) {
                    let key = e1.region.raw();
                    let Some(e2) = self.md2.peek(n, self.md2.set_index(key), key) else {
                        return Err(format!(
                            "node {n} MD1 entry for region {key:#x} has no MD2 backing"
                        ));
                    };
                    match e2.tp {
                        Some(tp)
                            if tp.side == side
                                && tp.set as usize == set1
                                && tp.way as usize == way1 => {}
                        other => {
                            return Err(format!(
                                "node {n} MD1 entry for {key:#x} not named by its TP ({other:?})"
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Resolves the node's active LI array for a region, for checking.
    fn active_lis(&self, node: usize, region: RegionAddr) -> Option<[Li; LINES_PER_REGION]> {
        let md = self.find_active_md(node, region)?;
        let mut out = [Li::Invalid; LINES_PER_REGION];
        for (off, slot) in out.iter_mut().enumerate() {
            *slot = self.li_get(node, md, off);
        }
        let _ = matches!(md, MdRef::Md1 { .. });
        Some(out)
    }

    fn check_active_li_determinism(&self) -> Result<(), String> {
        for n in 0..self.nodes_count() {
            for (_, _, key, e2) in self.md2.iter_bank(n) {
                let region = RegionAddr::new(key);
                let lis = self.active_lis(n, region).expect("entry exists");
                let is_i = e2.is_icache;
                for (off, li) in lis.iter().enumerate() {
                    let line = region.line(crate::meta_line_offset(off));
                    match *li {
                        Li::L1 { way } => {
                            let kind = if is_i { ArrKind::L1I } else { ArrKind::L1D };
                            let set = self.l1_set(line);
                            match self.arr(kind).at(n, set, way as usize) {
                                Some((k, dl)) if k == line.raw() && dl.serveable() => {}
                                _ => {
                                    return Err(format!(
                                    "node {n} LI for {line:?} names L1 way {way} without the line"
                                ))
                                }
                            }
                        }
                        Li::L2 { .. } => {
                            return Err(format!(
                                "node {n} LI for {line:?} names an L2, which D2M does not have"
                            ));
                        }
                        Li::LlcFs { .. } | Li::LlcNs { .. } => {
                            let (slice, way) =
                                self.llc_slice_way(*li).map_err(|e| e.to_string())?;
                            let set = self.llc_set(line, slice);
                            match self.llc.at(slice, set, way) {
                                Some((k, dl)) if k == line.raw() && dl.serveable() => {}
                                _ => {
                                    return Err(format!(
                                        "node {n} LI for {line:?} names LLC slot {li:?} without serveable data"
                                    ))
                                }
                            }
                        }
                        Li::Node(m) => {
                            if m.index() == n {
                                return Err(format!("node {n} LI for {line:?} points at itself"));
                            }
                            match self.node_slot_of(m.index(), line) {
                                Some((kind, set, way)) => {
                                    let dl = self
                                        .arr(kind)
                                        .at(m.index(), set, way)
                                        .map(|(_, dl)| *dl)
                                        .expect("occupied");
                                    if !dl.master {
                                        return Err(format!(
                                            "node {n} LI for {line:?} names node {m} whose copy is not master"
                                        ));
                                    }
                                }
                                None => {
                                    return Err(format!(
                                    "node {n} LI for {line:?} names node {m} which lacks the line"
                                ))
                                }
                            }
                        }
                        Li::Mem => {}
                        Li::Invalid => {
                            return Err(format!("node {n} holds an Invalid LI for {line:?}"))
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn check_md3_li_determinism(&self) -> Result<(), String> {
        for (_, _, key, e3) in self.md3.iter() {
            let region = RegionAddr::new(key);
            let valid = e3.li.count_valid() as usize;
            if valid > 0 && valid < LINES_PER_REGION {
                return Err(format!("MD3 entry {key:#x} mixes valid and invalid LIs"));
            }
            if valid == 0 {
                // Private region: exactly one PB owner is expected.
                if e3.pb.count_ones() != 1 {
                    return Err(format!(
                        "MD3 entry {key:#x} has invalid LIs but {} PB bits",
                        e3.pb.count_ones()
                    ));
                }
                continue;
            }
            for (off, li) in e3.li.to_array(self.enc).iter().enumerate() {
                let line = region.line(crate::meta_line_offset(off));
                match *li {
                    Li::LlcFs { .. } | Li::LlcNs { .. } => {
                        let (slice, way) = self.llc_slice_way(*li).map_err(|e| e.to_string())?;
                        let set = self.llc_set(line, slice);
                        match self.llc.at(slice, set, way) {
                            Some((k, dl)) if k == line.raw() && dl.master => {}
                            _ => {
                                return Err(format!(
                                    "MD3 LI for {line:?} names {li:?} which is not the master"
                                ))
                            }
                        }
                    }
                    Li::Node(m) => match self.node_slot_of(m.index(), line) {
                        Some((kind, set, way)) => {
                            let dl = self
                                .arr(kind)
                                .at(m.index(), set, way)
                                .map(|(_, dl)| *dl)
                                .expect("occupied");
                            if !dl.master {
                                return Err(format!(
                                    "MD3 LI for {line:?} names node {m} whose copy is not master"
                                ));
                            }
                        }
                        None => {
                            return Err(format!(
                                "MD3 LI for {line:?} names node {m} which lacks the line"
                            ))
                        }
                    },
                    Li::Mem => {}
                    other => {
                        return Err(format!("MD3 LI for {line:?} is {other:?}"));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_data_inclusion(&self) -> Result<(), String> {
        for n in 0..self.nodes_count() {
            for kind in [ArrKind::L1I, ArrKind::L1D] {
                for (_, _, key, _) in self.arr(kind).iter_bank(n) {
                    let region = LineAddr::new(key).region();
                    if self
                        .md2
                        .peek(n, self.md2.set_index(region.raw()), region.raw())
                        .is_none()
                    {
                        return Err(format!(
                            "node {n} caches line {key:#x} whose region is untracked (inclusion)"
                        ));
                    }
                }
            }
            // NS replicas in the node's slice must be MD2-tracked too.
            if self.feats.near_side {
                for (_, _, key, dl) in self.llc.iter_bank(n) {
                    if !dl.master && !dl.stale {
                        let region = LineAddr::new(key).region();
                        if self
                            .md2
                            .peek(n, self.md2.set_index(region.raw()), region.raw())
                            .is_none()
                        {
                            return Err(format!(
                                "node {n} slice replica {key:#x} untracked by MD2 (inclusion)"
                            ));
                        }
                    }
                }
            }
        }
        // Every LLC-resident line's region must be in MD3, with the line's
        // offset marked in the entry's `llc_seen` index (the MD3-eviction
        // purge visits only marked offsets).
        for slice in 0..self.llc.banks() {
            for (_, _, key, _) in self.llc.iter_bank(slice) {
                let line = LineAddr::new(key);
                let region = line.region();
                let Some(e3) = self
                    .md3
                    .peek(self.md3.set_index(region.raw()), region.raw())
                else {
                    return Err(format!(
                        "LLC slice {slice} holds line {key:#x} whose region left MD3 (inclusion)"
                    ));
                };
                if e3.llc_seen & (1 << line.region_offset().raw()) == 0 {
                    return Err(format!(
                        "LLC slice {slice} holds line {key:#x} missing from its MD3 llc_seen index"
                    ));
                }
            }
        }
        Ok(())
    }

    fn check_single_master_and_versions(&self) -> Result<(), String> {
        let mut masters: HashMap<u64, Vec<String>> = HashMap::new();
        let mut record = |key: u64, is_master: bool, whence: String| {
            if is_master {
                masters.entry(key).or_default().push(whence);
            }
        };
        for n in 0..self.nodes_count() {
            for kind in [ArrKind::L1I, ArrKind::L1D] {
                for (_, _, key, dl) in self.arr(kind).iter_bank(n) {
                    record(key, dl.master, format!("node {n} {kind:?}"));
                    if dl.serveable() {
                        let want = self.oracle.latest(LineAddr::new(key));
                        if dl.version != want {
                            return Err(format!(
                                "node {n} serveable copy of {key:#x} has v{} ≠ latest v{want}",
                                dl.version
                            ));
                        }
                    }
                }
            }
        }
        for slice in 0..self.llc.banks() {
            for (set, way, key, dl) in self.llc.iter_bank(slice) {
                record(
                    key,
                    dl.master,
                    format!(
                        "llc slice {slice} set {set} way {way} (dirty={} stale={})",
                        dl.dirty, dl.stale
                    ),
                );
                if dl.serveable() {
                    let want = self.oracle.latest(LineAddr::new(key));
                    if dl.version != want {
                        return Err(format!(
                            "LLC slice {slice} serveable copy of {key:#x} has v{} ≠ latest v{want}",
                            dl.version
                        ));
                    }
                }
            }
        }
        for (key, locs) in &masters {
            if locs.len() > 1 {
                return Err(format!(
                    "line {key:#x} has {} masters: {locs:?}",
                    locs.len()
                ));
            }
        }
        // Lines with no cached master: memory must hold the latest version.
        // (Only lines ever written matter; others are trivially version 0.)
        for n in 0..self.nodes_count() {
            for kind in [ArrKind::L1I, ArrKind::L1D] {
                for (_, _, key, _) in self.arr(kind).iter_bank(n) {
                    if masters.get(&key).map_or(0, |v| v.len()) == 0 {
                        let line = LineAddr::new(key);
                        if self.oracle.memory(line) != self.oracle.latest(line) {
                            return Err(format!(
                                "line {key:#x} mastered by memory, but memory is stale"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl D2mSystem {
    /// Debug aid: every node-held master's RP must name a live victim slot
    /// (or memory). Used by ad-hoc reproduction drivers; O(all lines).
    pub fn debug_validate_rps(&self) -> Result<(), String> {
        for n in 0..self.cfg.nodes {
            for kind in [ArrKind::L1I, ArrKind::L1D] {
                for (_, _, key, dl) in self.arr(kind).iter_bank(n) {
                    if !dl.master {
                        continue;
                    }
                    let line = LineAddr::new(key);
                    match dl.rp {
                        Li::LlcFs { .. } | Li::LlcNs { .. } => {
                            let (slice, way) =
                                self.llc_slice_way(dl.rp).map_err(|e| e.to_string())?;
                            let set = self.llc_set(line, slice);
                            match self.llc.at(slice, set, way) {
                                Some((k, _)) if k == key => {}
                                other => {
                                    return Err(format!(
                                        "node {n} {kind:?} master {key:#x} rp {:?} names {:?}",
                                        dl.rp,
                                        other.map(|(k, d)| (k, d.master, d.stale))
                                    ))
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        Ok(())
    }
}
