//! Precise-path generation — the automatic half of "selection" (§3.2).
//!
//! When the user points at a component value in a rendered page, Retrozilla
//! computes "a precise XPath expression, i.e., an XPath where each HTML
//! element is associated with its parent-relative position, leading to the
//! focused value". [`precise_path`] is that computation: a location path of
//! `child::NAME[k]` / `child::text()[k]` steps from the document root.

use crate::ast::{Expr, LocationPath, NodeTest, Step};
use retroweb_html::{Document, NodeData, NodeId};
use std::fmt;

/// Failure to build a path (detached node or unsupported node kind).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildError {
    pub message: String,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "precise-path error: {}", self.message)
    }
}

impl std::error::Error for BuildError {}

/// Build the absolute precise path of `target`.
///
/// The resulting path evaluates (from any context) to exactly `{target}`:
/// this invariant is what makes rule checking meaningful and is enforced
/// by property tests.
pub fn precise_path(doc: &Document, target: NodeId) -> Result<LocationPath, BuildError> {
    let steps = steps_to(doc, target, doc.root())?;
    Ok(LocationPath::absolute(steps))
}

/// Build a precise path relative to `ancestor` (which must be an ancestor
/// of `target` or `target` itself — the latter yields `.`).
pub fn precise_path_from(
    doc: &Document,
    target: NodeId,
    ancestor: NodeId,
) -> Result<LocationPath, BuildError> {
    if target == ancestor {
        return Ok(LocationPath::relative(vec![Step::new(
            crate::ast::Axis::SelfAxis,
            NodeTest::Node,
        )]));
    }
    if !doc.is_ancestor_of(ancestor, target) {
        return Err(BuildError {
            message: "context node is not an ancestor of the target".to_string(),
        });
    }
    let steps = steps_to(doc, target, ancestor)?;
    Ok(LocationPath::relative(steps))
}

fn steps_to(doc: &Document, target: NodeId, top: NodeId) -> Result<Vec<Step>, BuildError> {
    let mut rev_steps = Vec::new();
    let mut cur = target;
    while cur != top {
        let parent = doc.parent(cur).ok_or_else(|| BuildError {
            message: format!("node {cur} is detached from the tree"),
        })?;
        rev_steps.push(step_for(doc, cur)?);
        cur = parent;
    }
    rev_steps.reverse();
    Ok(rev_steps)
}

/// The `child::…[k]` step locating `node` among its siblings.
fn step_for(doc: &Document, node: NodeId) -> Result<Step, BuildError> {
    match doc.node(node).data {
        NodeData::Element(_) => {
            let name = doc.tag_name(node).unwrap_or_default();
            let mut index = 1u32;
            let mut sib = doc.prev_sibling(node);
            while let Some(s) = sib {
                if doc.tag_name(s).map(|t| t.eq_ignore_ascii_case(name)).unwrap_or(false) {
                    index += 1;
                }
                sib = doc.prev_sibling(s);
            }
            // Uppercase for display fidelity with the paper; the engine's
            // name tests are case-insensitive either way.
            Ok(Step::child_name(&name.to_ascii_uppercase(), Some(index as f64)))
        }
        NodeData::Text(_) => {
            let mut index = 1u32;
            let mut sib = doc.prev_sibling(node);
            while let Some(s) = sib {
                if doc.is_text(s) {
                    index += 1;
                }
                sib = doc.prev_sibling(s);
            }
            Ok(Step::child_text(Some(index as f64)))
        }
        NodeData::Comment(_) => {
            let mut index = 1u32;
            let mut sib = doc.prev_sibling(node);
            while let Some(s) = sib {
                if matches!(doc.node(s).data, NodeData::Comment(_)) {
                    index += 1;
                }
                sib = doc.prev_sibling(s);
            }
            let mut step = Step::new(crate::ast::Axis::Child, NodeTest::Comment);
            step.predicates.push(Expr::Number(index as f64));
            Ok(step)
        }
        NodeData::Document => {
            Err(BuildError { message: "cannot address the document node".into() })
        }
        NodeData::Doctype(_) => Err(BuildError { message: "cannot address a doctype node".into() }),
    }
}

/// Render a precise path in the paper's display form: relative to `BODY`
/// (`BODY[1]/DIV[2]/…`), as in the §2.3 example rule.
pub fn display_body_relative(path: &LocationPath) -> String {
    let full = path.to_string();
    match full.find("/BODY") {
        Some(idx) => full[idx + 1..].to_string(),
        None => full,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Engine;
    use retroweb_html::parse;

    #[test]
    fn precise_path_selects_exactly_target() {
        let doc = parse(
            "<html><body><div>a</div><div><table>\
             <tr><td>x</td><td>y</td></tr>\
             <tr><td>p</td><td>q</td></tr>\
             </table></div></body></html>",
        );
        let engine = Engine::new(&doc);
        for node in doc.descendants(doc.root()) {
            if matches!(doc.node(node).data, NodeData::Doctype(_)) {
                continue;
            }
            let path = precise_path(&doc, node).unwrap();
            let expr = Expr::Path(path);
            let got = engine.select(&expr, doc.root()).unwrap();
            assert_eq!(got, vec![node], "path {expr} did not round-trip");
        }
    }

    #[test]
    fn path_shape_matches_paper_style() {
        let doc = parse("<html><body><div>a</div><div><b>label</b> 108 min</div></body></html>");
        let divs = doc.elements_by_tag("div");
        let second_div_text = doc.children(divs[1]).find(|&c| doc.is_text(c)).unwrap();
        let path = precise_path(&doc, second_div_text).unwrap();
        assert_eq!(path.to_string(), "/HTML[1]/BODY[1]/DIV[2]/text()[1]");
        assert_eq!(display_body_relative(&path), "BODY[1]/DIV[2]/text()[1]");
    }

    #[test]
    fn sibling_indices_count_same_kind_only() {
        let doc = parse("<body>t1<b>b1</b>t2<b>b2</b>t3</body>");
        let body = doc.body().unwrap();
        let kids: Vec<NodeId> = doc.children(body).collect();
        // kids: text, b, text, b, text
        let p_t3 = precise_path(&doc, kids[4]).unwrap();
        assert!(p_t3.to_string().ends_with("text()[3]"));
        let p_b2 = precise_path(&doc, kids[3]).unwrap();
        assert!(p_b2.to_string().ends_with("B[2]"));
    }

    #[test]
    fn relative_path_from_ancestor() {
        let doc = parse("<body><table><tr><td>x</td></tr></table></body>");
        let table = doc.elements_by_tag("table")[0];
        let td = doc.elements_by_tag("td")[0];
        let rel = precise_path_from(&doc, td, table).unwrap();
        assert_eq!(rel.to_string(), "TR[1]/TD[1]");
        let engine = Engine::new(&doc);
        let got = engine.select(&Expr::Path(rel), table).unwrap();
        assert_eq!(got, vec![td]);
    }

    #[test]
    fn relative_path_errors_for_non_ancestor() {
        let doc = parse("<body><p>a</p><p>b</p></body>");
        let ps = doc.elements_by_tag("p");
        assert!(precise_path_from(&doc, ps[0], ps[1]).is_err());
    }

    #[test]
    fn detached_node_errors() {
        let mut doc = parse("<body><p>a</p></body>");
        let p = doc.elements_by_tag("p")[0];
        doc.detach(p);
        assert!(precise_path(&doc, p).is_err());
    }
}
