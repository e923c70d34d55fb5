// The forms of `golden_search.rs`, for suites that replay them against
// another engine. `apply_equivalence.rs` checks first that they still
// reproduce `fixtures/golden_search.txt`, so this copy cannot drift from
// the golden suite's own without failing.

use sensormeta_query::{Acl, CondOp, Condition, SearchForm, SortBy};

/// Anonymous users read field sites and projects; `alice` (researchers)
/// also reads deployments; `root` (admins) reads everything.
pub fn restricted_acl() -> Acl {
    let mut acl = Acl::new();
    acl.grant("public", "Fieldsite");
    acl.grant("public", "Project");
    acl.grant("researchers", "Deployment");
    acl.grant("admins", "*");
    acl.add_member("alice", "researchers");
    acl.add_member("root", "admins");
    acl
}

fn kw(q: &str) -> SearchForm {
    SearchForm::keywords(q)
}

fn cond(attribute: &str, op: CondOp, value: &str) -> Condition {
    Condition::new(attribute, op, value)
}

fn with(form: SearchForm, edit: impl FnOnce(&mut SearchForm)) -> SearchForm {
    let mut form = form;
    edit(&mut form);
    form
}

/// `(name, acl-restricted engine?, user, form)` for every golden form.
pub fn forms() -> Vec<(&'static str, bool, Option<&'static str>, SearchForm)> {
    let none = SearchForm::default;
    let elevation_gt = |v: &str| none().condition(cond("hasElevation", CondOp::Gt, v));
    vec![
        // Keywords, any and all.
        ("kw_temperature", false, None, kw("temperature")),
        ("kw_snow", false, None, kw("snow")),
        ("kw_wind_speed", false, None, kw("wind speed")),
        ("kw_vendor_mixed_case", false, None, kw("CampBell")),
        (
            "kw_sensor_limit25",
            false,
            None,
            with(kw("sensor"), |f| f.limit = 25),
        ),
        ("kw_research_project", false, None, kw("research project")),
        ("kw_alpine_station", false, None, kw("alpine station")),
        (
            "kw_all_wind_speed",
            false,
            None,
            with(kw("wind speed"), |f| f.match_all = true),
        ),
        (
            "kw_all_temperature_campbell",
            false,
            None,
            with(kw("temperature campbell"), |f| f.match_all = true),
        ),
        (
            "kw_all_no_overlap",
            false,
            None,
            with(kw("discharge avalanche institution"), |f| {
                f.match_all = true
            }),
        ),
        // Eq conditions (SPARQL, with the case-insensitive SQL fallback).
        (
            "eq_measures_temperature",
            false,
            None,
            none().condition(cond("measuresQuantity", CondOp::Eq, "temperature")),
        ),
        (
            "eq_vendor_campbell_kw",
            false,
            None,
            kw("sensor").condition(cond("hasVendor", CondOp::Eq, "Campbell")),
        ),
        (
            "eq_case_fallback_sql",
            false,
            None,
            none().condition(cond("measuresQuantity", CondOp::Eq, "WIND_SPEED")),
        ),
        (
            "eq_country",
            false,
            None,
            none().condition(cond("locatedInCountry", CondOp::Eq, "Switzerland")),
        ),
        (
            "eq_no_match",
            false,
            None,
            none().condition(cond("hasVendor", CondOp::Eq, "Acme")),
        ),
        // SQL conditions.
        ("gt_elevation", false, None, elevation_gt("2000")),
        (
            "lt_elevation",
            false,
            None,
            none().condition(cond("hasElevation", CondOp::Lt, "1200")),
        ),
        (
            "between_elevation",
            false,
            None,
            none().condition(cond("hasElevation", CondOp::Between, "1500..2500")),
        ),
        (
            "contains_project",
            false,
            None,
            none().condition(cond("partOfProject", CondOp::Contains, "snow")),
        ),
        (
            "gt_interval_kw",
            false,
            None,
            kw("sensor").condition(cond("hasSamplingIntervalMinutes", CondOp::Gt, "10")),
        ),
        (
            "lt_interval_limit10",
            false,
            None,
            with(
                none().condition(cond("hasSamplingIntervalMinutes", CondOp::Lt, "10")),
                |f| f.limit = 10,
            ),
        ),
        // Soft conditions (match degree) and hard multi-condition pushdown.
        (
            "soft_two",
            false,
            None,
            with(
                none()
                    .condition(cond("hasElevation", CondOp::Gt, "2500"))
                    .condition(cond("measuresQuantity", CondOp::Eq, "temperature")),
                |f| f.soft_conditions = true,
            ),
        ),
        (
            "soft_three_kw",
            false,
            None,
            with(
                kw("snow")
                    .condition(cond("hasVendor", CondOp::Eq, "Vaisala"))
                    .condition(cond("hasSamplingIntervalMinutes", CondOp::Lt, "30"))
                    .condition(cond("hasUnit", CondOp::Contains, "m")),
                |f| f.soft_conditions = true,
            ),
        ),
        (
            "hard_two",
            false,
            None,
            none()
                .condition(cond("hasElevation", CondOp::Gt, "1000"))
                .condition(cond("locatedInCountry", CondOp::Eq, "Switzerland")),
        ),
        (
            "hard_three_kw",
            false,
            None,
            kw("sensor")
                .condition(cond("measuresQuantity", CondOp::Contains, "wind"))
                .condition(cond("hasSamplingIntervalMinutes", CondOp::Lt, "60"))
                .condition(cond("hasVendor", CondOp::Eq, "Davis")),
        ),
        (
            "hard_empty_intersection",
            false,
            None,
            none()
                .condition(cond("hasElevation", CondOp::Gt, "3000"))
                .condition(cond("measuresQuantity", CondOp::Eq, "temperature"))
                .condition(cond("hasVendor", CondOp::Eq, "Lufft")),
        ),
        // Namespace scoping.
        (
            "ns_deployment_kw",
            false,
            None,
            with(kw("snow"), |f| f.namespace = Some("Deployment".into())),
        ),
        (
            "ns_fieldsite_lower",
            false,
            None,
            with(kw("station"), |f| f.namespace = Some("fieldsite".into())),
        ),
        (
            "ns_only_project",
            false,
            None,
            with(none(), |f| f.namespace = Some("Project".into())),
        ),
        (
            "ns_unknown",
            false,
            None,
            with(kw("snow"), |f| f.namespace = Some("Nowhere".into())),
        ),
        // ACL users.
        ("acl_anonymous", true, None, kw("snow")),
        ("acl_alice", true, Some("alice"), kw("snow")),
        ("acl_root", true, Some("root"), kw("snow")),
        (
            "acl_mallory_cond",
            true,
            Some("mallory"),
            elevation_gt("1500"),
        ),
        (
            "acl_alice_ns_hidden",
            true,
            Some("alice"),
            with(kw("research"), |f| f.namespace = Some("Institution".into())),
        ),
        // Map regions.
        (
            "region_kw",
            false,
            None,
            with(kw("station"), |f| f.region = Some((46.0, 47.0, 7.0, 9.0))),
        ),
        (
            "region_only",
            false,
            None,
            with(none(), |f| f.region = Some((45.0, 48.0, 6.0, 11.0))),
        ),
        (
            "region_excludes_ungeolocated",
            false,
            None,
            with(kw("snow"), |f| f.region = Some((45.0, 48.0, 6.0, 11.0))),
        ),
        (
            "region_soft",
            false,
            None,
            with(
                none()
                    .condition(cond("hasElevation", CondOp::Gt, "2000"))
                    .condition(cond("hasElevation", CondOp::Lt, "3000")),
                |f| {
                    f.soft_conditions = true;
                    f.region = Some((46.0, 47.5, 6.5, 10.5));
                },
            ),
        ),
        // Every sort key, both orders.
        (
            "sort_relevance_desc",
            false,
            None,
            with(kw("temperature"), |f| f.descending = true),
        ),
        (
            "sort_pagerank",
            false,
            None,
            with(kw("sensor"), |f| f.sort_by = SortBy::PageRank),
        ),
        (
            "sort_pagerank_desc",
            false,
            None,
            with(kw("sensor"), |f| {
                f.sort_by = SortBy::PageRank;
                f.descending = true;
            }),
        ),
        (
            "sort_title",
            false,
            None,
            with(kw("wind"), |f| f.sort_by = SortBy::Title),
        ),
        (
            "sort_title_desc_limit10",
            false,
            None,
            with(kw("wind"), |f| {
                f.sort_by = SortBy::Title;
                f.descending = true;
                f.limit = 10;
            }),
        ),
        (
            "sort_attr_elevation",
            false,
            None,
            with(elevation_gt("0"), |f| {
                f.sort_by = SortBy::Attribute("hasElevation".into())
            }),
        ),
        (
            "sort_attr_elevation_case_desc",
            false,
            None,
            with(elevation_gt("0"), |f| {
                f.sort_by = SortBy::Attribute("HASELEVATION".into());
                f.descending = true;
            }),
        ),
        (
            "sort_attr_missing_on_some",
            false,
            None,
            with(kw("station sensor"), |f| {
                f.sort_by = SortBy::Attribute("hasElevation".into())
            }),
        ),
        (
            "sort_attr_missing_on_some_desc",
            false,
            None,
            with(kw("station sensor"), |f| {
                f.sort_by = SortBy::Attribute("hasElevation".into());
                f.descending = true;
            }),
        ),
        (
            "sort_attr_text",
            false,
            None,
            with(kw("sensor"), |f| {
                f.sort_by = SortBy::Attribute("hasVendor".into())
            }),
        ),
        (
            "sort_attr_numeric_interval",
            false,
            None,
            with(kw("sensor"), |f| {
                f.sort_by = SortBy::Attribute("hasSamplingIntervalMinutes".into());
                f.limit = 25;
            }),
        ),
        (
            "sort_attr_absent_everywhere",
            false,
            None,
            with(kw("snow"), |f| {
                f.sort_by = SortBy::Attribute("noSuchAttribute".into())
            }),
        ),
        // Limits.
        (
            "limit_10",
            false,
            None,
            with(kw("sensor"), |f| f.limit = 10),
        ),
        (
            "limit_25",
            false,
            None,
            with(kw("sensor"), |f| f.limit = 25),
        ),
        (
            "limit_0_default",
            false,
            None,
            with(kw("sensor"), |f| f.limit = 0),
        ),
        (
            "limit_1",
            false,
            None,
            with(kw("research"), |f| f.limit = 1),
        ),
        // Zero hits: did-you-mean only when keywords matched nothing.
        ("zero_hit_did_you_mean", false, None, kw("tempreature")),
        ("zero_hit_two_terms", false, None, kw("avalanch snwo")),
        (
            "zero_hit_by_condition",
            false,
            None,
            kw("temperature").condition(cond("hasVendor", CondOp::Eq, "Acme")),
        ),
        (
            "zero_hit_by_region",
            false,
            None,
            with(kw("station"), |f| f.region = Some((0.0, 1.0, 0.0, 1.0))),
        ),
        // Combinations.
        (
            "combo_kw_cond_ns_sort",
            false,
            None,
            with(
                kw("sensor").condition(cond(
                    "hasSamplingIntervalMinutes",
                    CondOp::Between,
                    "5..30",
                )),
                |f| {
                    f.namespace = Some("Deployment".into());
                    f.sort_by = SortBy::Attribute("hasSamplingIntervalMinutes".into());
                    f.limit = 25;
                },
            ),
        ),
        (
            "combo_acl_region_all",
            true,
            Some("alice"),
            with(kw("field site"), |f| {
                f.match_all = true;
                f.region = Some((45.5, 47.5, 6.5, 10.5));
            }),
        ),
    ]
}
