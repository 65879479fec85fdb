//! ECO soundness property: a warm serve session that absorbs a random
//! sequence of gate-delay edits answers exactly like a cold analysis
//! of the final edited design. Incrementality — re-characterizing only
//! the edited module, retiring only its oracle — may change *how much
//! work* an answer costs, never *which* answer arrives.

use hfta_core::HierAnalyzer;
use hfta_fta::AnalysisConfig;
use hfta_netlist::gen::{modular_design, GateMix, ModularDesignSpec};
use hfta_netlist::{Design, GateId, Time};
use hfta_serve::json::Json;
use hfta_serve::ServeSession;
use hfta_testkit::{from_fn_with_shrink, prop, vec_of, Rng, Strategy};

fn seed_strategy() -> impl Strategy<Value = u64> {
    from_fn_with_shrink(
        |rng: &mut Rng| rng.gen_range(0u64..1_000_000),
        |s: &u64| if *s == 0 { vec![] } else { vec![0, *s / 2] },
    )
}

/// One edit: which instantiated flavor, which gate in it, what delay.
/// Picks are raw draws reduced modulo the actual counts at use time.
fn edit_strategy() -> impl Strategy<Value = (usize, usize, u32)> {
    from_fn_with_shrink(
        |rng: &mut Rng| {
            (
                rng.gen_range(0usize..64),
                rng.gen_range(0usize..4096),
                rng.gen_range(0u32..9),
            )
        },
        |&(m, g, d): &(usize, usize, u32)| {
            let mut out = Vec::new();
            if m > 0 {
                out.push((0, g, d));
            }
            if g > 0 {
                out.push((m, g / 2, d));
            }
            if d > 1 {
                out.push((m, g, 1));
            }
            out
        },
    )
}

/// Asks the session for a full report and checks delay + every output
/// arrival against a cold [`HierAnalyzer`] over `cold`, via the same
/// JSON encoding the daemon uses (so ±∞ compare exactly too).
fn assert_matches_cold(session: &mut ServeSession, cold: &Design, top: &str, context: &str) {
    let composite = cold.composite(top).expect("top is composite");
    let mut fresh = HierAnalyzer::with_config(cold, top, &AnalysisConfig::default()).unwrap();
    let analysis = fresh
        .analyze(&vec![Time::ZERO; composite.inputs().len()])
        .unwrap();

    let (resp, _) = session.handle_line(r#"{"id":"check","kind":"report"}"#);
    let resp = resp.expect("report answers");
    let parsed = hfta_serve::json::parse(&resp).expect("response is JSON");
    assert_eq!(
        parsed.get("ok"),
        Some(&Json::Bool(true)),
        "{context}: {resp}"
    );
    assert_eq!(
        parsed.get("delay").map(Json::to_string),
        Some(hfta_serve::protocol::time_to_json(analysis.delay).to_string()),
        "{context}: delay diverged from cold analysis: {resp}"
    );
    let outputs = parsed.get("outputs").expect("report carries outputs");
    for (k, &po) in composite.outputs().iter().enumerate() {
        let name = composite.net_name(po);
        assert_eq!(
            outputs.get(name).map(Json::to_string),
            Some(hfta_serve::protocol::time_to_json(analysis.output_arrivals[k]).to_string()),
            "{context}: output `{name}` diverged from cold analysis: {resp}"
        );
    }
}

// Each case warms a small multi-flavor design, then interleaves random
// ECO gate-delay edits with report checks. `HFTA_PROP_CASES` overrides
// the count as usual.
prop!(cases = 8, fn eco_edits_answer_like_cold_reanalysis(
    seed in seed_strategy(),
    edits in vec_of(edit_strategy(), 1..5),
) {
    let spec = ModularDesignSpec {
        flavors: 3,
        instances: 6,
        gates_per_module: 22,
        layers: 2,
        seed,
        mix: GateMix::NandHeavy,
    };
    let design = modular_design(spec);
    let top = spec.top_name();
    // Only instantiated flavors matter for timing; edit those.
    let mut modules: Vec<String> = design
        .composite(&top)
        .unwrap()
        .instances()
        .iter()
        .map(|i| i.module.clone())
        .collect();
    modules.sort();
    modules.dedup();

    let mut session =
        ServeSession::new(design.clone(), &top, &AnalysisConfig::default()).unwrap();
    session.warm().unwrap();
    assert_matches_cold(&mut session, &design, &top, "pre-edit");

    // `cold` tracks the design the daemon *should* now be serving.
    let mut cold = design;
    for (k, &(m_pick, g_pick, delay)) in edits.iter().enumerate() {
        let module = &modules[m_pick % modules.len()];
        let mut edited = cold.leaf(module).unwrap().clone();
        let gid = GateId::from_index(g_pick % edited.gate_count());
        let gate_net = edited.net_name(edited.gate(gid).output).to_string();
        edited.set_gate_delay(gid, delay);
        cold.replace_leaf(edited).unwrap();

        let request = format!(
            r#"{{"id":{k},"kind":"eco","module":{},"gate":{},"delay":{delay}}}"#,
            Json::Str(module.clone()),
            Json::Str(gate_net.clone()),
        );
        let (resp, _) = session.handle_line(&request);
        let resp = resp.expect("eco answers");
        assert!(
            resp.contains(r#""ok":true"#),
            "eco edit {k} ({module}/{gate_net} -> {delay}) failed: {resp}"
        );
        assert_matches_cold(
            &mut session,
            &cold,
            &top,
            &format!("after edit {k} ({module}/{gate_net} -> {delay}), seed {seed}"),
        );
    }
});
