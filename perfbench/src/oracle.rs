//! The pre-timing check: a page sample of every workload cluster must
//! extract identically through the reference interpreter, and the
//! builder's working-sample pages must yield the sitegen ground truth.

use crate::inputs::{Inputs, Workload};
use retroweb_html::{parse, Document};
use retroweb_xpath::normalize_space;
use retrozilla::{extract_cluster_compiled, extract_cluster_interpreted, extract_page_compiled};

/// Pages per cluster checked against the interpreter.
const CHECKED_PAGES: usize = 16;

pub struct Precheck {
    pub lines: Vec<String>,
    pub errors: Vec<String>,
}

/// `(cluster, version, site)` triples whose ground truth applies: every
/// cluster on its own site; on `rule_churn` the hot rule versions on the
/// site each was built from.
fn checked_pairs(inputs: &Inputs) -> Vec<(usize, usize, usize)> {
    match inputs.workload {
        Workload::RuleChurn => vec![(0, 0, 0), (0, 1, 1)],
        _ => (0..inputs.clusters.len()).map(|c| (c, 0, c)).collect(),
    }
}

pub fn precheck(inputs: &Inputs) -> Precheck {
    let mut out = Precheck { lines: Vec::new(), errors: Vec::new() };
    for (c, v, site) in checked_pairs(inputs) {
        let cluster = &inputs.clusters[c];
        let (rules, compiled) = (&cluster.versions[v], &cluster.compiled[v]);
        let pages: Vec<usize> = (0..inputs.pages.len())
            .filter(|&i| inputs.pages[i].site_cluster == site)
            .take(CHECKED_PAGES)
            .collect();
        let docs: Vec<(String, Document)> = pages
            .iter()
            .map(|&i| (inputs.pages[i].uri.clone(), parse(&inputs.pages[i].html)))
            .collect();
        let reference = extract_cluster_interpreted(rules, &docs);
        let served = extract_cluster_compiled(compiled, &docs);
        if reference.xml.to_string_with(2) != served.xml.to_string_with(2)
            || reference.failures != served.failures
        {
            out.errors.push(format!(
                "{} (version {v}): compiled extraction differs from the interpreter",
                cluster.name
            ));
        }
        let (mut sample_ok, mut sample_all, mut rest_ok, mut rest_all) = (0, 0, 0, 0);
        for (&i, (uri, doc)) in pages.iter().zip(&docs) {
            let page = &inputs.pages[i];
            let mut failures = Vec::new();
            let values = extract_page_compiled(compiled, uri, doc, &mut failures);
            for rule in &rules.rules {
                let name = rule.name.as_str();
                let got = values.get(name).cloned().unwrap_or_default();
                let want: Vec<String> = page
                    .truth
                    .get(name)
                    .map(|vals| vals.iter().map(|s| normalize_space(s)).collect())
                    .unwrap_or_default();
                let ok = (got == want) as usize;
                if page.in_sample {
                    (sample_ok, sample_all) = (sample_ok + ok, sample_all + 1);
                } else {
                    (rest_ok, rest_all) = (rest_ok + ok, rest_all + 1);
                }
            }
        }
        if sample_ok != sample_all {
            out.errors.push(format!(
                "{} (version {v}): {} of {sample_all} component values on the builder's working \
                 sample differ from ground truth",
                cluster.name,
                sample_all - sample_ok
            ));
        }
        out.lines.push(format!(
            "oracle: {} v{v}: interpreter agrees on {} page(s); ground truth {sample_ok}/{sample_all} \
             on the working sample, {rest_ok}/{rest_all} beyond it",
            cluster.name,
            docs.len()
        ));
    }
    out
}
