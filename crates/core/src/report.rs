//! Human-readable insertion reports.
//!
//! Summarises a plan — what was inserted where, what it costs, and the
//! before/after testability picture — as plain text or Markdown, for CLI
//! output and sign-off documents.

use tpi_netlist::TestPoint;

use crate::evaluate::{PlanEval, PlanEvaluator};
use crate::{Plan, TpiError, TpiProblem};

/// A rendered insertion report.
#[derive(Clone, Debug)]
pub struct InsertionReport {
    /// Circuit name.
    pub circuit: String,
    /// Threshold description.
    pub threshold: String,
    /// The plan.
    pub plan: Plan,
    /// Analytic evaluation before insertion.
    pub before: PlanEval,
    /// Analytic evaluation after insertion.
    pub after: PlanEval,
    /// Per-point descriptions with signal names.
    pub point_lines: Vec<String>,
}

impl InsertionReport {
    /// Build a report for `plan` against `problem`.
    ///
    /// # Errors
    ///
    /// Propagates evaluator failures ([`TpiError::Netlist`]).
    pub fn build(problem: &TpiProblem, plan: &Plan) -> Result<InsertionReport, TpiError> {
        let evaluator = PlanEvaluator::new(problem)?;
        let before = evaluator.evaluate(&[])?;
        let after = evaluator.evaluate(plan.test_points())?;
        let circuit = problem.circuit();
        // Name points against the fully-applied circuit: a plan may place a
        // later point on a node created by an earlier point (node ids are
        // stable under the transforms), so the base circuit does not
        // necessarily know every referenced id.
        let (applied, _) = tpi_netlist::transform::apply_plan(circuit, plan.test_points())?;
        let point_lines = plan
            .test_points()
            .iter()
            .map(|tp: &TestPoint| {
                format!(
                    "{} at `{}` (cost {:.2})",
                    tp.kind,
                    applied.node_name(tp.node),
                    problem.costs().of(tp.kind)
                )
            })
            .collect();
        Ok(InsertionReport {
            circuit: circuit.name().to_string(),
            threshold: problem.threshold().to_string(),
            plan: plan.clone(),
            before,
            after,
            point_lines,
        })
    }

    /// Targets that miss the threshold before insertion.
    fn below_threshold(&self) -> usize {
        self.before.probabilities.len() - self.before.meeting
    }

    /// Render as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "# Test point insertion report — `{}`\n\n",
            self.circuit
        ));
        s.push_str(&format!(
            "Objective: every targeted fault detectable per pattern with probability ≥ {}.\n\n",
            self.threshold
        ));
        s.push_str("| metric | before | after |\n|---|---|---|\n");
        s.push_str(&format!(
            "| targets meeting threshold | {}/{} | {}/{} |\n",
            self.before.meeting,
            self.before.probabilities.len(),
            self.after.meeting,
            self.after.probabilities.len(),
        ));
        s.push_str(&format!(
            "| minimum detection probability | {:.3e} | {:.3e} |\n",
            self.before.min_probability, self.after.min_probability,
        ));
        s.push_str(&format!(
            "| feasible | {} | {} |\n\n",
            self.before.feasible, self.after.feasible
        ));
        if self.point_lines.is_empty() && self.before.feasible {
            s.push_str("No insertion required.\n");
        } else if self.point_lines.is_empty() {
            s.push_str(&format!(
                "No points inserted; {} of {} targets are still below the threshold.\n",
                self.below_threshold(),
                self.before.probabilities.len()
            ));
        } else {
            s.push_str(&format!(
                "## Inserted test points (total cost {:.2})\n\n",
                self.plan.cost()
            ));
            for line in &self.point_lines {
                s.push_str(&format!("* {line}\n"));
            }
        }
        s
    }

    /// Render as aligned plain text (for terminals).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "circuit {}  threshold {}\n",
            self.circuit, self.threshold
        ));
        s.push_str(&format!(
            "targets meeting: {}/{} -> {}/{}   min p_det: {:.3e} -> {:.3e}\n",
            self.before.meeting,
            self.before.probabilities.len(),
            self.after.meeting,
            self.after.probabilities.len(),
            self.before.min_probability,
            self.after.min_probability,
        ));
        if self.point_lines.is_empty() && self.before.feasible {
            s.push_str("no insertion required\n");
        } else if self.point_lines.is_empty() {
            s.push_str(&format!(
                "no points inserted; {} of {} targets still below the threshold\n",
                self.below_threshold(),
                self.before.probabilities.len()
            ));
        } else {
            s.push_str(&format!(
                "{} points, cost {:.2}:\n",
                self.plan.len(),
                self.plan.cost()
            ));
            for line in &self.point_lines {
                s.push_str(&format!("  - {line}\n"));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpOptimizer, Threshold};
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn report_for_cone() -> InsertionReport {
        let mut b = CircuitBuilder::new("and16");
        let xs = b.inputs(16, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        InsertionReport::build(&p, &plan).unwrap()
    }

    #[test]
    fn markdown_contains_the_story() {
        let r = report_for_cone();
        let md = r.to_markdown();
        assert!(md.contains("# Test point insertion report"));
        assert!(md.contains("| feasible | false | true |"));
        assert!(md.contains("Inserted test points"));
    }

    #[test]
    fn text_render_and_improvement() {
        let r = report_for_cone();
        assert!(r.after.min_probability > r.before.min_probability);
        let txt = r.to_text();
        assert!(txt.contains("and16"));
        assert!(txt.contains("points, cost"));
    }

    #[test]
    fn empty_plan_report() {
        let mut b = CircuitBuilder::new("xor2");
        let xs = b.inputs(2, "x");
        let g = b.gate(GateKind::Xor, vec![xs[0], xs[1]], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let plan = DpOptimizer::default().solve(&p).unwrap();
        let r = InsertionReport::build(&p, &plan).unwrap();
        assert!(r.to_markdown().contains("No insertion required"));
        assert!(r.to_text().contains("no insertion required"));
    }

    #[test]
    fn empty_plan_on_an_infeasible_problem_reports_the_missing_targets() {
        let mut b = CircuitBuilder::new("and16");
        let xs = b.inputs(16, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        // What an interrupted optimizer returns: nothing committed.
        let r = InsertionReport::build(&p, &Plan::new(vec![], 0.0, false)).unwrap();
        assert!(!r.before.feasible);
        let below = r.before.probabilities.len() - r.before.meeting;
        assert!(below > 0);
        let targets = r.before.probabilities.len();
        let txt = r.to_text();
        assert!(!txt.contains("no insertion required"), "{txt}");
        assert!(
            txt.contains(&format!(
                "no points inserted; {below} of {targets} targets still below the threshold"
            )),
            "{txt}"
        );
        let md = r.to_markdown();
        assert!(!md.contains("No insertion required"), "{md}");
        assert!(
            md.contains(&format!(
                "No points inserted; {below} of {targets} targets are still below the threshold."
            )),
            "{md}"
        );
    }
}
