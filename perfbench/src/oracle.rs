//! Independent output checks, recomputed from the raw generated rows.
//!
//! Nothing here touches the program's table, counter or skyline store: the
//! oracle interns the rows' strings itself (first appearance per attribute,
//! the id order the wire reports use), rebuilds each sampled arrival's live
//! history from the batch boundaries and the window, and derives every
//! qualifying (constraint, subspace) pair, its context size and its skyline
//! size by direct scans.

use crate::workload::Workload;
use sitfact_core::{Constraint, Direction, SkylinePair, SubspaceMask, TupleId, UNBOUND};
use sitfact_datagen::Row;
use sitfact_prominence::{ArrivalReport, RankedFact};
use std::collections::HashMap;

pub struct Oracle<'a> {
    workload: &'a Workload,
    rows: &'a [Row],
    ids: Vec<Vec<u32>>,
    directions: Vec<Direction>,
    /// First row of the request each row was sent in.
    batch_start: Vec<usize>,
}

impl<'a> Oracle<'a> {
    pub fn new(workload: &'a Workload, rows: &'a [Row]) -> Self {
        let n_dims = rows.first().map_or(0, |r| r.dims.len());
        let mut dictionaries: Vec<HashMap<&str, u32>> = vec![HashMap::new(); n_dims];
        let ids = rows
            .iter()
            .map(|row| {
                row.dims
                    .iter()
                    .zip(dictionaries.iter_mut())
                    .map(|(value, dict)| {
                        let next = dict.len() as u32;
                        *dict.entry(value.as_str()).or_insert(next)
                    })
                    .collect()
            })
            .collect();
        let mut batch_start = vec![0; rows.len()];
        for range in workload.requests() {
            for g in range.clone() {
                batch_start[g] = range.start;
            }
        }
        let directions = workload
            .schema()
            .measures()
            .iter()
            .map(|m| m.direction)
            .collect();
        Oracle {
            workload,
            rows,
            ids,
            directions,
            batch_start,
        }
    }

    /// Arrivals to check: a few spread over the prefill, more over the
    /// measured stream, and the last row.
    pub fn sample(&self) -> Vec<usize> {
        let (p, n) = (self.workload.prefill, self.rows.len());
        let mut picks: Vec<usize> = (0..8).map(|k| k * p / 8).collect();
        picks.extend((0..24).map(|k| p + k * (n - p) / 24));
        picks.push(n - 1);
        picks.sort_unstable();
        picks.dedup();
        picks
    }

    /// Rows arrival `g` is compared against: everything before it in arrival
    /// order that the window had not evicted when its request arrived.
    /// Eviction happens only between requests, so in-request predecessors
    /// always count.
    fn history(&self, g: usize) -> std::ops::Range<usize> {
        let start = self.batch_start[g];
        let low = self
            .workload
            .window
            .map_or(0, |w| start.saturating_sub(w as usize));
        low..g
    }

    fn dominates(&self, a: usize, b: usize, subspace: u32) -> bool {
        let (x, y) = (&self.rows[a].measures, &self.rows[b].measures);
        let mut strictly = false;
        for (i, direction) in self.directions.iter().enumerate() {
            if subspace & (1 << i) == 0 || x[i] == y[i] {
                continue;
            }
            let better = match direction {
                Direction::HigherIsBetter => x[i] > y[i],
                Direction::LowerIsBetter => x[i] < y[i],
            };
            if !better {
                return false;
            }
            strictly = true;
        }
        strictly
    }

    /// Size of the skyline of `context` in `subspace` (block-nested loop).
    fn skyline_size(&self, context: &[usize], subspace: u32) -> u64 {
        let mut skyline: Vec<usize> = Vec::new();
        for &p in context {
            if skyline.iter().any(|&s| self.dominates(s, p, subspace)) {
                continue;
            }
            skyline.retain(|&s| !self.dominates(p, s, subspace));
            skyline.push(p);
        }
        skyline.len() as u64
    }

    /// Every fact of arrival `g`, in prominence order.
    pub fn facts(&self, g: usize) -> Vec<RankedFact> {
        let n_dims = self.ids[g].len();
        let n_measures = self.directions.len();
        let history = self.history(g);
        let mut facts = Vec::new();
        for bound in 0u32..(1 << n_dims) {
            if bound.count_ones() as u64 > self.workload.d_hat {
                continue;
            }
            let matches = |h: usize| {
                (0..n_dims).all(|d| bound & (1 << d) == 0 || self.ids[h][d] == self.ids[g][d])
            };
            let mut context: Vec<usize> = history.clone().filter(|&h| matches(h)).collect();
            context.push(g);
            let values = (0..n_dims)
                .map(|d| {
                    if bound & (1 << d) == 0 {
                        UNBOUND
                    } else {
                        self.ids[g][d]
                    }
                })
                .collect();
            let constraint = Constraint::from_values(values);
            for subspace in 1u32..(1 << n_measures) {
                if subspace.count_ones() as u64 > self.workload.m_hat
                    || context.iter().any(|&h| self.dominates(h, g, subspace))
                {
                    continue;
                }
                facts.push(RankedFact {
                    pair: SkylinePair::new(constraint.clone(), SubspaceMask(subspace)),
                    context_size: context.len() as u64,
                    skyline_size: self.skyline_size(&context, subspace),
                });
            }
        }
        facts.sort_by(|a, b| {
            prominence(b)
                .total_cmp(&prominence(a))
                .then_with(|| a.pair.constraint.values().cmp(b.pair.constraint.values()))
                .then(a.pair.subspace.cmp(&b.pair.subspace))
        });
        facts
    }

    /// The report arrival `g` must get: its facts cut to the retention cap,
    /// never below the facts tied at the maximum prominence when that
    /// maximum reaches τ.
    pub fn report(&self, g: usize) -> ArrivalReport {
        let mut facts = self.facts(g);
        let max = facts.first().map_or(0.0, prominence);
        let prominent_count = if max >= self.workload.tau {
            facts
                .iter()
                .take_while(|f| (prominence(f) - max).abs() < f64::EPSILON)
                .count()
        } else {
            0
        };
        facts.truncate((self.workload.keep_top as usize).max(prominent_count));
        ArrivalReport {
            tuple_id: g as TupleId,
            facts,
            prominent_count,
        }
    }

    /// Checks the sampled arrivals of `reports` (one per row, in order).
    pub fn check(&self, reports: &[ArrivalReport]) -> Result<(), String> {
        if reports.len() != self.rows.len() {
            return Err(format!(
                "{} reports for {} rows",
                reports.len(),
                self.rows.len()
            ));
        }
        for g in self.sample() {
            let expected = self.report(g);
            if reports[g] != expected {
                return Err(format!(
                    "arrival {g}: served report differs from the recomputation \
                     (served {} facts, prominent {}; expected {} facts, prominent {})",
                    reports[g].facts.len(),
                    reports[g].prominent_count,
                    expected.facts.len(),
                    expected.prominent_count
                ));
            }
        }
        Ok(())
    }

    /// Checks a full, untruncated fact list of arrival `g`.
    pub fn check_all_facts(&self, g: usize, facts: &[RankedFact]) -> Result<(), String> {
        let mut got = facts.to_vec();
        let mut want = self.facts(g);
        let key = |f: &RankedFact| (f.pair.constraint.values().to_vec(), f.pair.subspace);
        got.sort_by_key(key);
        want.sort_by_key(key);
        if got != want {
            return Err(format!(
                "arrival {g}: {} discovered pairs, the recomputation qualifies {}",
                got.len(),
                want.len()
            ));
        }
        Ok(())
    }
}

fn prominence(fact: &RankedFact) -> f64 {
    fact.context_size as f64 / fact.skyline_size as f64
}
