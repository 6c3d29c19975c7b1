//! The group-then-match detection engine behind every full native pass: the
//! semantic detector's and the plan layer's columnar driver's.
//!
//! A row's LHS match depends only on its `X` codes, so for each fused `X`
//! attribute list (a [`Scan`], the fusion `ecfd_plan`'s `ScanNode` computes):
//!
//! 1. one grouping pass numbers the distinct `X` projections in first-seen
//!    order and gives every row its group id;
//! 2. LHS cells are matched once per `(group, pattern)`;
//! 3. SV is decided once per distinct `(group, Y ∪ Yp codes)` combination;
//! 4. MV comes from one distinct-`Y` test per `(group, Y list)`: a group
//!    taking two `Y` projections is flagged when a matched pattern has that
//!    `Y`.
//!
//! The work is `O(rows × X-lists + groups × patterns)`, not
//! `O(rows × patterns)`. A finished [`Pass`] builds only what its caller
//! asks for: the flag-level [`DetectionReport`] straight from the per-group
//! decisions, or the [`EvidenceReport`] and [`GroupMap`] from per-group
//! member lists in view-position order.
//!
//! Only the row-proportional grouping pass fans out across workers
//! ([`Parallelism`]): each worker groups one contiguous row chunk
//! (`parallel::split_ranges`), and the chunks merge in order, so group
//! ids — and with them every output — are identical at 1 and N workers.

use crate::evidence::{ConstraintRef, EvidenceReport, MvEvidence, SvEvidence};
use crate::parallel::{effective_threads, split_ranges, Parallelism};
use crate::report::DetectionReport;
use crate::semantic::{GroupMap, GroupState};
use ecfd_core::coded::CodedSingle;
use ecfd_core::matching::BoundECfd;
use ecfd_relation::{AttrId, CodeMap, CodeVec, ColumnarView, Dictionary, RowId};
use std::collections::BTreeSet;

/// One pattern fed by a [`Scan`]: a split single-pattern constraint.
#[derive(Debug, Clone)]
pub struct Member {
    /// Index of the split constraint (and of its coded pattern cells).
    pub ci: usize,
    /// The `Y ∪ Yp` attributes in tableau cell order (the `SV` check).
    pub check: Vec<AttrId>,
    /// The `Y` attributes (the embedded FD); empty for pure pattern
    /// constraints, which never raise `MV`.
    pub group: Vec<AttrId>,
}

/// One fused `X` attribute list and the patterns grouped on it.
#[derive(Debug, Clone)]
pub struct Scan {
    /// The shared `X` attributes.
    pub x: Vec<AttrId>,
    /// The patterns with exactly this `X`, in first-seen constraint order.
    pub members: Vec<Member>,
}

impl Scan {
    /// Fuses bound split constraints with identical `X` lists into one scan
    /// each, in first-seen order.
    pub(crate) fn fuse(bounds: &[BoundECfd<'_>]) -> Vec<Scan> {
        let mut scans: Vec<Scan> = Vec::new();
        for (ci, bound) in bounds.iter().enumerate() {
            let member = Member {
                ci,
                check: bound.rhs_ids().to_vec(),
                group: bound.fd_rhs_ids().to_vec(),
            };
            match scans.iter_mut().find(|s| s.x == bound.lhs_ids()) {
                Some(scan) => scan.members.push(member),
                None => scans.push(Scan {
                    x: bound.lhs_ids().to_vec(),
                    members: vec![member],
                }),
            }
        }
        scans
    }

    /// The distinct attribute lists `list` picks, and each member's index.
    fn classes(&self, list: impl Fn(&Member) -> &[AttrId]) -> (Vec<&[AttrId]>, Vec<usize>) {
        let mut distinct: Vec<&[AttrId]> = Vec::new();
        let class = self
            .members
            .iter()
            .map(|m| match distinct.iter().position(|d| *d == list(m)) {
                Some(c) => c,
                None => {
                    distinct.push(list(m));
                    distinct.len() - 1
                }
            })
            .collect();
        (distinct, class)
    }
}

/// One scan's decisions.
#[derive(Debug)]
struct ScanOut {
    /// Group id per view position.
    gid: Vec<u32>,
    /// Per group, its first view position.
    first: Vec<usize>,
    /// Per group, the member indices whose LHS matches.
    matched: Vec<Vec<u32>>,
    /// Per group, the matched members whose `Y` takes two projections in it.
    violated: Vec<Vec<u32>>,
    /// `SV` rows, each with a failing combination (once per failing list).
    sv: Vec<(usize, usize)>,
    /// Per combination, the member indices whose RHS it fails.
    fails: Vec<Vec<u32>>,
}

impl ScanOut {
    /// Member view positions per group, ascending.
    fn group_rows(&self) -> Vec<Vec<u32>> {
        let mut rows = vec![Vec::new(); self.first.len()];
        for (pos, &g) in self.gid.iter().enumerate() {
            rows[g as usize].push(pos as u32);
        }
        rows
    }
}

/// A finished engine pass over one view; outputs are built on demand.
#[derive(Debug)]
pub struct Pass<'a> {
    view: &'a ColumnarView,
    scans: &'a [Scan],
    outs: Vec<ScanOut>,
}

impl<'a> Pass<'a> {
    /// Groups, matches and decides every scan over `view`. `cells` is
    /// indexed by [`Member::ci`] and must be coded by the dictionary lineage
    /// that issued the view's codes.
    pub fn run(
        view: &'a ColumnarView,
        scans: &'a [Scan],
        cells: &[CodedSingle],
        parallelism: Parallelism,
    ) -> Self {
        let outs = group_all(view, scans, parallelism)
            .into_iter()
            .zip(scans)
            .map(|(grouping, scan)| decide(view, scan, cells, grouping))
            .collect();
        Pass { view, scans, outs }
    }

    /// Number of group ids, summed over the scans' `X` lists.
    pub fn num_groups(&self) -> usize {
        self.outs.iter().map(|o| o.first.len()).sum()
    }

    /// The flag-level report, straight from the per-group decisions.
    pub fn report(&self) -> DetectionReport {
        let mut sv = vec![false; self.view.num_rows()];
        let mut mv = vec![false; self.view.num_rows()];
        for out in &self.outs {
            for &(pos, _) in &out.sv {
                sv[pos] = true;
            }
            for (pos, &g) in out.gid.iter().enumerate() {
                mv[pos] |= !out.violated[g as usize].is_empty();
            }
        }
        let rows = |flags: Vec<bool>| {
            flags
                .iter()
                .enumerate()
                .filter(|&(_, &flag)| flag)
                .map(|(pos, _)| self.view.row_id(pos))
                .collect()
        };
        DetectionReport {
            sv_rows: rows(sv),
            mv_rows: rows(mv),
            total_rows: self.view.num_rows(),
        }
    }

    /// One record per `(SV row, failed pattern)`.
    pub(crate) fn sv_evidence(&self, provenance: &[(usize, usize)]) -> Vec<SvEvidence> {
        let mut sv = Vec::new();
        for (scan, out) in self.scans.iter().zip(&self.outs) {
            for &(pos, combo) in &out.sv {
                for &m in &out.fails[combo] {
                    sv.push(SvEvidence {
                        row: self.view.row_id(pos),
                        source: source(provenance, scan.members[m as usize].ci),
                    });
                }
            }
        }
        sv
    }

    /// The normalized evidence: every `SV` record plus one record per
    /// `(violating group, pattern)`, keys decoded through `dict`.
    pub fn evidence(&self, provenance: &[(usize, usize)], dict: &Dictionary) -> EvidenceReport {
        let mut evidence = EvidenceReport {
            sv: self.sv_evidence(provenance),
            total_rows: self.view.num_rows(),
            ..Default::default()
        };
        for (scan, out) in self.scans.iter().zip(&self.outs) {
            let rows = out.group_rows();
            for (g, &first) in out.first.iter().enumerate() {
                let violated = &out.violated[g];
                if violated.is_empty() {
                    continue;
                }
                let group_key = dict.decode_all(self.view.key(first, &scan.x).as_slice());
                let members: BTreeSet<RowId> = self.row_ids(&rows[g]).collect();
                for &m in violated {
                    evidence.mv_groups.push(MvEvidence {
                        source: source(provenance, scan.members[m as usize].ci),
                        group_key: group_key.clone(),
                        rows: members.clone(),
                    });
                }
            }
        }
        evidence.normalize();
        evidence
    }

    /// The coded group map: one [`GroupState`] per `(group, matched pattern
    /// with a Y)`, member rows in view order.
    pub(crate) fn group_map(&self) -> GroupMap {
        let mut groups = GroupMap::default();
        for (scan, out) in self.scans.iter().zip(&self.outs) {
            let rows = out.group_rows();
            let (y_lists, y_of) = scan.classes(|m| &m.group);
            for (g, &first) in out.first.iter().enumerate() {
                let key = self.view.key(first, &scan.x);
                let members: Vec<RowId> = self.row_ids(&rows[g]).collect();
                let mut counts: Vec<Option<CodeMap<CodeVec, usize>>> = vec![None; y_lists.len()];
                for &m in &out.matched[g] {
                    let (member, y) = (&scan.members[m as usize], y_of[m as usize]);
                    if member.group.is_empty() {
                        continue;
                    }
                    let y_counts = counts[y].get_or_insert_with(|| {
                        let mut counts = CodeMap::default();
                        for &pos in &rows[g] {
                            *counts
                                .entry(self.view.key(pos as usize, y_lists[y]))
                                .or_insert(0) += 1;
                        }
                        counts
                    });
                    let state = GroupState {
                        y_counts: y_counts.clone(),
                        rows: members.clone(),
                    };
                    groups.insert((member.ci, key.clone()), state);
                }
            }
        }
        groups
    }

    fn row_ids<'p>(&'p self, positions: &'p [u32]) -> impl Iterator<Item = RowId> + 'p {
        positions.iter().map(|&pos| self.view.row_id(pos as usize))
    }
}

fn source(provenance: &[(usize, usize)], ci: usize) -> ConstraintRef {
    let (constraint, pattern) = provenance[ci];
    ConstraintRef::new(constraint, pattern)
}

/// One scan's grouping: distinct `X` projections in first-seen order.
#[derive(Debug, Default, PartialEq)]
struct Grouping {
    /// Group id per row.
    gid: Vec<u32>,
    /// Per group, its first view position.
    first: Vec<usize>,
    ids: CodeMap<CodeVec, u32>,
}

impl Grouping {
    /// The id of `key`, numbering it with first position `pos` if new.
    fn id(&mut self, key: CodeVec, pos: usize) -> u32 {
        let first = &mut self.first;
        *self.ids.entry(key).or_insert_with(|| {
            first.push(pos);
            (first.len() - 1) as u32
        })
    }
}

/// The grouping of every scan; row chunks across workers merge in order.
fn group_all(view: &ColumnarView, scans: &[Scan], parallelism: Parallelism) -> Vec<Grouping> {
    let n_rows = view.num_rows();
    let threads = effective_threads(parallelism, n_rows, scans.len());
    let chunk = |(lo, hi): (usize, usize)| -> Vec<Grouping> {
        let group = |scan: &Scan| {
            let mut grouping = Grouping::default();
            for pos in lo..hi {
                let id = grouping.id(view.key(pos, &scan.x), pos);
                grouping.gid.push(id);
            }
            grouping
        };
        scans.iter().map(group).collect()
    };
    if threads <= 1 {
        return chunk((0, n_rows));
    }
    let mut chunks = std::thread::scope(|s| {
        let handles: Vec<_> = split_ranges(n_rows, threads)
            .into_iter()
            .map(|range| s.spawn(move || chunk(range)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("grouping worker panicked"))
            .collect::<Vec<_>>()
    })
    .into_iter();
    let mut merged = chunks.next().expect("at least one chunk");
    for next in chunks {
        for ((scan, into), part) in scans.iter().zip(&mut merged).zip(next) {
            // Renumber the chunk's groups into the merged first-seen order.
            let ids: Vec<u32> = part
                .first
                .iter()
                .map(|&pos| into.id(view.key(pos, &scan.x), pos))
                .collect();
            into.gid.extend(part.gid.iter().map(|&l| ids[l as usize]));
        }
    }
    merged
}

/// Steps 2–4 for one grouped scan.
fn decide(
    view: &ColumnarView,
    scan: &Scan,
    cells: &[CodedSingle],
    Grouping { gid, first, .. }: Grouping,
) -> ScanOut {
    let members = &scan.members;
    let lhs_matches =
        |pos: usize, m: &Member| cells[m.ci].lhs_matches(scan.x.iter().map(|&a| view.code(pos, a)));
    let matched: Vec<Vec<u32>> = first
        .iter()
        .map(|&pos| {
            (0..members.len() as u32)
                .filter(|&m| lhs_matches(pos, &members[m as usize]))
                .collect()
        })
        .collect();

    // SV, once per distinct (group, Y ∪ Yp list, codes) combination,
    // testing the group's matched members with that list.
    let (checks, check_of) = scan.classes(|m| &m.check);
    let tested: Vec<Vec<Vec<u32>>> = (0..checks.len())
        .map(|c| {
            let of_class = |m: &&u32| check_of[**m as usize] == c;
            matched
                .iter()
                .map(|ms| ms.iter().filter(of_class).copied().collect())
                .collect()
        })
        .collect();
    let mut combos: CodeMap<(u32, usize, CodeVec), usize> = CodeMap::default();
    let (mut fails, mut sv) = (Vec::new(), Vec::new());
    for (pos, &g) in gid.iter().enumerate() {
        for (c, check) in checks.iter().enumerate() {
            let tested = &tested[c][g as usize];
            if tested.is_empty() {
                continue;
            }
            let key = (g, c, view.key(pos, check));
            let combo = *combos.entry(key).or_insert_with_key(|(_, _, codes)| {
                let codes = codes.as_slice();
                let failing = tested
                    .iter()
                    .copied()
                    .filter(|&m| !cells[members[m as usize].ci].rhs_matches(codes.iter().copied()));
                fails.push(failing.collect::<Vec<u32>>());
                fails.len() - 1
            });
            if !fails[combo].is_empty() {
                sv.push((pos, combo));
            }
        }
    }

    // MV: per distinct Y list, does each group take two Y projections?
    let (y_lists, y_of) = scan.classes(|m| &m.group);
    let mut split = vec![vec![false; first.len()]; y_lists.len()];
    for (pos, &g) in gid.iter().enumerate() {
        let g = g as usize;
        for (y, attrs) in y_lists.iter().enumerate() {
            let differs = |&a: &AttrId| view.code(pos, a) != view.code(first[g], a);
            split[y][g] = split[y][g] || attrs.iter().any(differs);
        }
    }
    let violated = matched
        .iter()
        .enumerate()
        .map(|(g, ms)| {
            ms.iter()
                .copied()
                .filter(|&m| split[y_of[m as usize]][g])
                .collect()
        })
        .collect();
    ScanOut {
        gid,
        first,
        matched,
        violated,
        sv,
        fails,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecfd_relation::{DataType, Relation, Schema, Tuple};

    #[test]
    fn grouping_is_identical_at_one_and_many_workers() {
        let schema = Schema::builder("t")
            .attr("A", DataType::Str)
            .attr("B", DataType::Str)
            .build();
        let rel = Relation::with_tuples(
            schema,
            (0..10_000).map(|i| Tuple::from_iter([format!("a{}", i % 37), format!("b{}", i % 5)])),
        )
        .unwrap();
        let mut dict = Dictionary::new();
        let view = ColumnarView::build(&rel, &mut dict);
        let scans = [
            Scan {
                x: vec![AttrId(0)],
                members: Vec::new(),
            },
            Scan {
                x: vec![AttrId(1), AttrId(0)],
                members: Vec::new(),
            },
            Scan {
                x: Vec::new(),
                members: Vec::new(),
            },
        ];
        let one = group_all(&view, &scans, Parallelism::Fixed(1));
        let four = group_all(&view, &scans, Parallelism::Fixed(4));
        assert_eq!(one, four);
        assert_eq!(one[0].first.len(), 37);
        assert_eq!(one[1].first.len(), 185);
        assert_eq!(one[2].first, vec![0], "an empty X is one group");
        // Ids are first-seen: the first row of every group carries its id.
        for grouping in &one {
            for (g, &pos) in grouping.first.iter().enumerate() {
                assert_eq!(grouping.gid[pos] as usize, g);
            }
        }
    }
}
