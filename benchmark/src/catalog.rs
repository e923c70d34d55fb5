//! Every metric the benchmark reports, named once: unit, direction, and for
//! end-to-end metrics the regression bound. `BENCHMARK.json` and the README
//! glossary list the same names; a self-test keeps the three in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "saturation_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_cpu_ms_per_req",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "server_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Single layers (layer = crate name), plus the end-to-end numbers that do
/// not apply to every workload or can be zero and therefore carry no bound.
pub const PER_LAYER: &[PerLayer] = &[
    lower("search_p50_ms", "ms"),
    lower("read_p95_ms", "ms"),
    lower("search_p95_ms", "ms"),
    lower("read_p99_ms", "ms"),
    lower("write_p50_ms", "ms"),
    lower("visible_p50_ms", "ms"),
    lower("error_ratio", "ratio"),
    lower("server.conn_opens_per_req", "ratio"),
    lower("server.bytes_out_per_req", "B"),
    lower("server.parse_us", "us"),
    lower("server.write_us", "us"),
    lower("server.handle_us.search_hit", "us"),
    lower("server.handle_us.search_miss", "us"),
    lower("server.handle_us.autocomplete", "us"),
    lower("server.handle_us.page", "us"),
    lower("server.handle_us.recommend", "us"),
    lower("server.handle_us.tags", "us"),
    lower("server.handle_us.viz_bar", "us"),
    lower("server.handle_us.viz_pie", "us"),
    lower("server.handle_us.viz_map", "us"),
    lower("server.handle_us.viz_graph", "us"),
    lower("server.handle_us.viz_hypergraph", "us"),
    lower("server.handle_us.bulkload", "us"),
    lower("server.handle_us.tag", "us"),
    lower("server.render_self_us", "us"),
    lower("server.accept_shed", "count"),
    lower("server.handler_panics", "count"),
    higher("resil.admitted", "count"),
    lower("resil.shed", "count"),
    lower("resil.deadline_504", "count"),
    lower("tx.snapshot_us", "us"),
    lower("tx.commits", "count"),
    lower("tx.versions_live_max", "count"),
    higher("cache.query_results.hit_ratio", "ratio"),
    lower("cache.query_results.evictions", "count"),
    lower("cache.query_results.stale_serves", "count"),
    lower("cache.query_results.singleflight_waits", "count"),
    higher("cache.search.hit_ratio", "ratio"),
    higher("cache.tag_cloud.hit_ratio", "ratio"),
    higher("cache.rank.hit_ratio", "ratio"),
    lower("cache.hit_us", "us"),
    lower("cache.miss_overhead_us", "us"),
    lower("query.uncached_us", "us"),
    lower("query.keyword_us", "us"),
    lower("query.conditions_sparql_us", "us"),
    lower("query.conditions_sql_us", "us"),
    lower("query.assemble_us", "us"),
    lower("query.finalize_us", "us"),
    lower("query.searches", "count"),
    lower("search.bm25_us", "us"),
    lower("search.autocomplete_us", "us"),
    lower("search.index_build_ms", "ms"),
    lower("rdf.sparql_us", "us"),
    lower("relstore.sql_select_us", "us"),
    lower("relstore.plan_full_scan", "count"),
    higher("relstore.plan_index_seek", "count"),
    lower("smr.bulk_load_ms_per_page", "ms"),
    lower("smr.get_page_us", "us"),
    lower("smr.link_graphs_ms", "ms"),
    lower("relstore.wal_bytes_per_page", "B"),
    lower("relstore.wal_fsyncs", "count"),
    lower("query.rebuild_ms", "ms"),
    lower("rank.solve_ms", "ms"),
    lower("rank.iterations", "count"),
    lower("query.rebuilds", "count"),
    lower("tagging.ingest_ms", "ms"),
    lower("tagging.cloud_compute_ms", "ms"),
    lower("tagging.suggest_us", "us"),
    lower("viz.tagcloud_render_us", "us"),
    lower("viz.graph_ms", "ms"),
    lower("viz.hypergraph_ms", "ms"),
    lower("cluster.search_us", "us"),
    lower("cluster.critical_path_us", "us"),
    lower("cluster.republish_ms", "ms"),
    lower("par.tasks_per_req", "ratio"),
    lower("par.regions_per_req", "ratio"),
    lower("obs.hit_path_overhead_ratio", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("loadgen.lateness_p99_ms", "ms"),
    lower("loadgen.send_delay_p99_ms", "ms"),
    lower("loadgen.loadavg_start", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// `BENCHMARK.json` lists exactly the catalogue, with its units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            spec[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_owned(),
                        m["unit"].as_str().unwrap().to_owned(),
                        m["better"].as_str().unwrap().to_owned(),
                        m.get("bound").and_then(Value::as_f64),
                    )
                })
                .collect()
        };
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    Some(m.bound),
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    m.unit.to_owned(),
                    m.better.as_str().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
