//! # relgo-datagen
//!
//! Deterministic synthetic datasets standing in for the paper's benchmarks:
//!
//! * [`snb`] — an LDBC-SNB-like social network (persons, messages, forums,
//!   tags, places, companies, and the full set of relationship tables) with
//!   power-law `Knows`/`Likes` degree distributions and a scale-factor knob.
//!   `sf = 0.1 / 0.3 / 1.0` play the roles of the paper's LDBC 10/30/100.
//! * [`imdb`] — an IMDB-like movie database (titles, names, companies,
//!   keywords, and the JOB link tables) with skewed cast/keyword
//!   distributions, backing the JOB-style join-order workload.
//!
//! All generation is seeded (`rand::StdRng`) and reproducible; every foreign
//! key is total (the λ functions of RGMapping must be total functions).

pub mod imdb;
pub mod snb;

pub use imdb::{generate_imdb, ImdbParams};
pub use snb::{generate_snb, snb_update_stream, SnbParams, UpdateOp};

#[cfg(test)]
mod tests {
    use super::*;
    use relgo_common::{LabelId, RowId};
    use relgo_graph::{Direction, GraphView};

    /// Every label × direction of the VE-index built over a generated
    /// dataset equals the reference: the `(vertex, edge, neighbor)` triples
    /// of the EV-index, comparison-sorted by `(vertex, neighbor, edge)`.
    #[test]
    fn generated_ve_index_equals_comparison_sort() {
        let datasets = [
            generate_snb(&SnbParams { sf: 0.1, seed: 42 }),
            generate_imdb(&ImdbParams {
                sf: 0.05,
                seed: 4242,
            }),
        ];
        for (mut db, mapping) in datasets {
            let mut view = GraphView::build(&mut db, mapping).unwrap();
            view.build_index().unwrap();
            let idx = view.index().unwrap();
            for li in 0..view.schema().edge_label_count() as u16 {
                let el = LabelId(li);
                let (src_label, dst_label) = view.schema().edge_endpoints(el);
                for (dir, label) in [(Direction::Out, src_label), (Direction::In, dst_label)] {
                    let mut want: Vec<(RowId, RowId, RowId)> = (0..view.edge_count(el) as RowId)
                        .map(|e| {
                            let (s, t) = (idx.edge_src(el, e), idx.edge_dst(el, e));
                            match dir {
                                Direction::Out => (s, t, e),
                                Direction::In => (t, s, e),
                            }
                        })
                        .collect();
                    want.sort_unstable();
                    let got: Vec<(RowId, RowId, RowId)> = (0..view.vertex_count(label) as RowId)
                        .flat_map(|v| {
                            let (es, ns) = idx.neighbors(el, dir, v);
                            es.iter().zip(ns).map(move |(&e, &n)| (v, n, e))
                        })
                        .collect();
                    let name = view.schema().edge_label_name(el);
                    assert_eq!(got, want, "{name} {dir:?}");
                }
            }
        }
    }
}
