//! Per-module timing abstractions and their text serialization.
//!
//! A [`ModuleTiming`] packages one [`TimingModel`] per module output —
//! the paper's abstraction of a leaf module, valid under *any*
//! surrounding arrival-time environment. Because the model exposes only
//! pin-to-pin delay tuples, it doubles as the paper's Section 7 use
//! case: timing abstraction of black-box IP blocks, accurate without
//! revealing module internals. [`ModuleTiming::to_text`] /
//! [`ModuleTiming::from_text`] serialize the abstraction to a small
//! self-describing format, and `hfta-modeldb` persists it (with
//! fingerprints and checksums) as the on-disk model database record.
//!
//! This module lives here rather than in `hfta-core` so that the model
//! database can depend on the abstraction without pulling in the
//! hierarchical analyzers; `hfta-core` re-exports the types.

use std::error::Error;
use std::fmt;

use hfta_netlist::{Netlist, NetlistError, Time};
use hfta_trace::Tracer;

use crate::config::{AnalysisConfig, ModelSource};
use crate::model::{TimingModel, TimingTuple};
use crate::required::{
    characterize_module_traced, characterize_module_with_stats, topological_delays, ConeSigCache,
};
use crate::stability::StabilityStats;

/// The timing abstraction of one module: a timing model per output.
#[derive(Clone, PartialEq, Debug)]
pub struct ModuleTiming {
    module: String,
    input_names: Vec<String>,
    output_names: Vec<String>,
    models: Vec<TimingModel>,
}

impl ModuleTiming {
    /// Characterizes `netlist` into a timing abstraction: functional
    /// models under `config`, or longest-path models when
    /// `config.source` is [`ModelSource::Topological`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn characterize(
        netlist: &Netlist,
        config: &AnalysisConfig,
    ) -> Result<ModuleTiming, NetlistError> {
        ModuleTiming::characterize_with_stats(netlist, config).map(|(m, _)| m)
    }

    /// Like [`ModuleTiming::characterize`], also returning the
    /// stability/solver work spent (zero for topological models, which
    /// need no stability checks). Stats ride alongside rather than in
    /// the struct so abstractions remain pure data (serializable,
    /// comparable).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn characterize_with_stats(
        netlist: &Netlist,
        config: &AnalysisConfig,
    ) -> Result<(ModuleTiming, StabilityStats), NetlistError> {
        match config.source {
            ModelSource::Functional => {
                let (models, stats) = characterize_module_with_stats(netlist, config)?;
                Ok((ModuleTiming::with_ports(netlist, models), stats))
            }
            ModelSource::Topological => Ok((
                ModuleTiming::topological(netlist)?,
                StabilityStats::default(),
            )),
        }
    }

    /// The topological abstraction of `netlist`: one longest-path
    /// tuple per output. It is what a functional characterization
    /// degrades to when its deadline has already passed.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn topological(netlist: &Netlist) -> Result<ModuleTiming, NetlistError> {
        let models = netlist
            .outputs()
            .iter()
            .map(|&o| Ok(TimingModel::topological(topological_delays(netlist, o)?)))
            .collect::<Result<Vec<_>, NetlistError>>()?;
        Ok(ModuleTiming::with_ports(netlist, models))
    }

    /// Like [`ModuleTiming::characterize_with_stats`], sharing
    /// functional characterization work across structurally isomorphic
    /// cones through `cache` (a no-op for topological models and when
    /// [`AnalysisConfig::cone_sig`] is off).
    ///
    /// The third component names, per output, the module that
    /// originally characterized the shared cone (`None` for fresh
    /// outputs).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn characterize_cached(
        netlist: &Netlist,
        config: &AnalysisConfig,
        cache: &mut ConeSigCache,
    ) -> Result<(ModuleTiming, StabilityStats, Vec<Option<String>>), NetlistError> {
        let mut tracer = Tracer::disabled();
        ModuleTiming::characterize_traced(netlist, config, cache, &mut tracer)
    }

    /// Like [`ModuleTiming::characterize_cached`], recording
    /// characterization spans and events (cone-signature hits,
    /// relaxation steps, SAT episodes) into `tracer` when it is
    /// enabled. With a disabled tracer this is exactly
    /// [`ModuleTiming::characterize_cached`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic netlists.
    pub fn characterize_traced(
        netlist: &Netlist,
        config: &AnalysisConfig,
        cache: &mut ConeSigCache,
        tracer: &mut Tracer,
    ) -> Result<(ModuleTiming, StabilityStats, Vec<Option<String>>), NetlistError> {
        if config.source == ModelSource::Topological {
            let owners = vec![None; netlist.outputs().len()];
            return Ok((
                ModuleTiming::topological(netlist)?,
                StabilityStats::default(),
                owners,
            ));
        }
        let (models, stats, owners) =
            characterize_module_traced(netlist, config, Some(cache), tracer)?;
        Ok((ModuleTiming::with_ports(netlist, models), stats, owners))
    }

    /// Packages `models` (one per output) under `netlist`'s name and
    /// port names.
    fn with_ports(netlist: &Netlist, models: Vec<TimingModel>) -> ModuleTiming {
        ModuleTiming {
            module: netlist.name().to_string(),
            input_names: netlist
                .inputs()
                .iter()
                .map(|&n| netlist.net_name(n).to_string())
                .collect(),
            output_names: netlist
                .outputs()
                .iter()
                .map(|&n| netlist.net_name(n).to_string())
                .collect(),
            models,
        }
    }

    /// Builds an abstraction from parts (e.g. for a black box whose
    /// models come from a datasheet).
    ///
    /// # Panics
    ///
    /// Panics if `models.len() != output_names.len()` or any model's
    /// input count differs from `input_names.len()`.
    #[must_use]
    pub fn from_parts(
        module: impl Into<String>,
        input_names: Vec<String>,
        output_names: Vec<String>,
        models: Vec<TimingModel>,
    ) -> ModuleTiming {
        assert_eq!(models.len(), output_names.len(), "one model per output");
        for m in &models {
            assert_eq!(
                m.num_inputs(),
                input_names.len(),
                "model arity must match input count"
            );
        }
        ModuleTiming {
            module: module.into(),
            input_names,
            output_names,
            models,
        }
    }

    /// The module name.
    #[must_use]
    pub fn module(&self) -> &str {
        &self.module
    }

    /// Input pin names, in port order.
    #[must_use]
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output pin names, in port order.
    #[must_use]
    pub fn output_names(&self) -> &[String] {
        &self.output_names
    }

    /// The timing models, one per output in port order.
    #[must_use]
    pub fn models(&self) -> &[TimingModel] {
        &self.models
    }

    /// The model of output `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn model(&self, k: usize) -> &TimingModel {
        &self.models[k]
    }

    /// Stable times of all outputs under the given input arrivals (the
    /// paper's min–max propagation through one module).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len()` differs from the input count.
    #[must_use]
    pub fn output_stable_times(&self, arrivals: &[Time]) -> Vec<Time> {
        self.models
            .iter()
            .map(|m| m.stable_time(arrivals))
            .collect()
    }

    /// Verifies this abstraction against a golden netlist: every tuple
    /// of every output model must pass a full XBD0 stability check
    /// (inputs at the negated delays, output required at 0), and the
    /// port lists must match by name.
    ///
    /// This is the IP-consumer side of Section 7: a vendor model can be
    /// audited without trusting the vendor's characterization.
    /// Returns the list of violations (empty = verified).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] for cyclic
    /// netlists.
    pub fn verify(&self, netlist: &Netlist) -> Result<Vec<String>, NetlistError> {
        use crate::{SatAlg, StabilityAnalyzer};
        let mut violations = Vec::new();
        let actual_inputs: Vec<&str> = netlist
            .inputs()
            .iter()
            .map(|&n| netlist.net_name(n))
            .collect();
        if actual_inputs
            != self
                .input_names
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            violations.push(format!(
                "input ports differ: model {:?}, netlist {:?}",
                self.input_names, actual_inputs
            ));
            return Ok(violations);
        }
        let actual_outputs: Vec<&str> = netlist
            .outputs()
            .iter()
            .map(|&n| netlist.net_name(n))
            .collect();
        if actual_outputs
            != self
                .output_names
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            violations.push(format!(
                "output ports differ: model {:?}, netlist {:?}",
                self.output_names, actual_outputs
            ));
            return Ok(violations);
        }
        // One analyzer audits every tuple of every output: each check
        // rebinds the arrivals while the SAT solver state persists.
        let mut an: Option<StabilityAnalyzer<'_, SatAlg>> = None;
        for (k, (&out, model)) in netlist.outputs().iter().zip(&self.models).enumerate() {
            for tuple in model.tuples() {
                let arrivals: Vec<Time> = tuple.delays().iter().map(|&d| -d).collect();
                match &mut an {
                    Some(a) => a.set_arrivals(&arrivals),
                    None => {
                        an = Some(StabilityAnalyzer::new(netlist, &arrivals, SatAlg::new())?);
                    }
                }
                let an = an.as_mut().expect("just created");
                if !an.is_stable_at(out, Time::ZERO) {
                    violations.push(format!(
                        "output `{}` tuple {tuple} is optimistic",
                        self.output_names[k]
                    ));
                }
            }
        }
        Ok(violations)
    }

    /// Serializes to the `hfta-timing-model v1` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "hfta-timing-model v1");
        let _ = writeln!(s, "module {}", self.module);
        let _ = writeln!(s, "inputs {}", self.input_names.join(" "));
        for (name, model) in self.output_names.iter().zip(&self.models) {
            let _ = writeln!(s, "output {name}");
            for t in model.tuples() {
                let entries: Vec<String> = t.delays().iter().map(Time::to_string).collect();
                let _ = writeln!(s, "  tuple {}", entries.join(" "));
            }
        }
        let _ = writeln!(s, "end");
        s
    }

    /// Parses the `hfta-timing-model v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseModelError`] on malformed input.
    pub fn from_text(text: &str) -> Result<ModuleTiming, ParseModelError> {
        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim()));
        let err = |line: usize, message: &str| ParseModelError {
            line,
            message: message.to_string(),
        };
        let (line, header) = lines.next().ok_or_else(|| err(0, "empty input"))?;
        if header != "hfta-timing-model v1" {
            return Err(err(line, "missing `hfta-timing-model v1` header"));
        }
        let mut module = None;
        let mut inputs: Vec<String> = Vec::new();
        let mut outputs: Vec<String> = Vec::new();
        let mut models: Vec<Vec<TimingTuple>> = Vec::new();
        let mut ended = false;
        for (lineno, raw) in lines {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(err(lineno, "content after `end`"));
            }
            let mut toks = line.split_whitespace();
            match toks.next().expect("non-empty") {
                "module" => {
                    module = Some(
                        toks.next()
                            .ok_or_else(|| err(lineno, "usage: module NAME"))?
                            .to_string(),
                    );
                }
                "inputs" => inputs.extend(toks.map(str::to_string)),
                "output" => {
                    outputs.push(
                        toks.next()
                            .ok_or_else(|| err(lineno, "usage: output NAME"))?
                            .to_string(),
                    );
                    models.push(Vec::new());
                }
                "tuple" => {
                    let cur = models
                        .last_mut()
                        .ok_or_else(|| err(lineno, "tuple before any output"))?;
                    let mut delays = Vec::new();
                    for tok in toks {
                        let t = parse_time(tok)
                            .ok_or_else(|| err(lineno, &format!("bad time value `{tok}`")))?;
                        delays.push(t);
                    }
                    if delays.len() != inputs.len() {
                        return Err(err(
                            lineno,
                            &format!(
                                "tuple has {} entries, module has {} inputs",
                                delays.len(),
                                inputs.len()
                            ),
                        ));
                    }
                    cur.push(TimingTuple::new(delays));
                }
                "end" => ended = true,
                other => return Err(err(lineno, &format!("unknown keyword `{other}`"))),
            }
        }
        if !ended {
            return Err(err(text.lines().count(), "missing `end`"));
        }
        let module = module.ok_or_else(|| err(0, "missing `module` line"))?;
        let mut built = Vec::with_capacity(models.len());
        for (k, tuples) in models.into_iter().enumerate() {
            if tuples.is_empty() {
                return Err(err(0, &format!("output `{}` has no tuples", outputs[k])));
            }
            built.push(TimingModel::from_tuples(tuples));
        }
        Ok(ModuleTiming {
            module,
            input_names: inputs,
            output_names: outputs,
            models: built,
        })
    }
}

fn parse_time(tok: &str) -> Option<Time> {
    match tok {
        "-inf" => Some(Time::NEG_INF),
        "+inf" | "inf" => Some(Time::POS_INF),
        _ => tok.parse::<i64>().ok().map(Time::new),
    }
}

/// Error from [`ModuleTiming::from_text`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseModelError {
    /// 1-based line number (0 when the input ended prematurely).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "timing model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseModelError {}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn characterize_functional_vs_topological() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        let topo = ModuleTiming::topological(&nl).unwrap();
        // c_out: functional sees the false path (2), topological 6.
        assert_eq!(f.model(2).tuples()[0].delay(0), t(2));
        assert_eq!(topo.model(2).tuples()[0].delay(0), t(6));
        assert_eq!(f.input_names()[0], "c_in");
        assert_eq!(f.output_names(), &["s0", "s1", "c_out"]);
    }

    #[test]
    fn output_stable_times_min_max() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        // The paper's second-block scenario: c_in at 8, others at 0.
        let times = f.output_stable_times(&[t(8), t(0), t(0), t(0), t(0)]);
        assert_eq!(times[2], t(10)); // c4 = 10
    }

    #[test]
    fn text_round_trip() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let f = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        let text = f.to_text();
        let parsed = ModuleTiming::from_text(&text).unwrap();
        assert_eq!(parsed, f);
        assert!(text.contains("tuple 2 8 8 6 6"));
    }

    #[test]
    fn text_with_infinities_round_trips() {
        let m = ModuleTiming::from_parts(
            "blk",
            vec!["a".into(), "b".into()],
            vec!["z".into()],
            vec![TimingModel::from_tuples(vec![
                TimingTuple::new(vec![t(3), Time::NEG_INF]),
                TimingTuple::new(vec![Time::NEG_INF, t(5)]),
            ])],
        );
        let parsed = ModuleTiming::from_text(&m.to_text()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.model(0).tuples().len(), 2);
    }

    #[test]
    fn parse_errors_are_located() {
        let e = ModuleTiming::from_text("nope\n").unwrap_err();
        assert_eq!(e.line, 1);
        let text = "hfta-timing-model v1\nmodule m\ninputs a b\noutput z\n  tuple 1\nend\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.message.contains("entries"));
        let text = "hfta-timing-model v1\nmodule m\ninputs a\ntuple 1\nend\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert!(e.message.contains("before any output"));
        let text = "hfta-timing-model v1\nmodule m\ninputs a\noutput z\n  tuple 1\n";
        let e = ModuleTiming::from_text(text).unwrap_err();
        assert!(e.message.contains("missing `end`"));
    }

    #[test]
    #[should_panic(expected = "one model per output")]
    fn from_parts_validates_counts() {
        let _ = ModuleTiming::from_parts(
            "m",
            vec!["a".into()],
            vec!["x".into(), "y".into()],
            vec![TimingModel::topological(vec![t(1)])],
        );
    }
}

#[cfg(test)]
mod verify_tests {
    use super::*;
    use hfta_netlist::gen::{carry_skip_block, CsaDelays};

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    #[test]
    fn honest_model_verifies() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let timing = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        assert!(timing.verify(&nl).unwrap().is_empty());
        // Topological models verify trivially too.
        let topo = ModuleTiming::topological(&nl).unwrap();
        assert!(topo.verify(&nl).unwrap().is_empty());
    }

    #[test]
    fn optimistic_model_is_caught() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let honest = ModuleTiming::characterize(&nl, &AnalysisConfig::default()).unwrap();
        // Forge a vendor model claiming a0 → c_out is only 5 (true: 8).
        let forged = ModuleTiming::from_parts(
            honest.module().to_string(),
            honest.input_names().to_vec(),
            honest.output_names().to_vec(),
            vec![
                honest.model(0).clone(),
                honest.model(1).clone(),
                TimingModel::from_tuples(vec![TimingTuple::new(vec![
                    t(2),
                    t(5),
                    t(8),
                    t(6),
                    t(6),
                ])]),
            ],
        );
        let violations = forged.verify(&nl).unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("c_out"), "{violations:?}");
        assert!(violations[0].contains("optimistic"));
    }

    #[test]
    fn port_mismatch_is_caught() {
        let nl = carry_skip_block(2, CsaDelays::default());
        let other = carry_skip_block(4, CsaDelays::default());
        let timing = ModuleTiming::topological(&other).unwrap();
        let violations = timing.verify(&nl).unwrap();
        assert!(!violations.is_empty());
        assert!(violations[0].contains("ports differ"));
    }
}
