//! HTML substrate edge cases beyond the per-module unit tests: content
//! models, malformed markup recovery, serializer quirks.

use retroweb_html::{parse, Document, NodeData, NodeId};

fn outline(doc: &Document) -> String {
    fn walk(doc: &Document, id: NodeId, out: &mut String) {
        for child in doc.children(id) {
            if let Some(tag) = doc.tag_name(child) {
                out.push('(');
                out.push_str(tag);
                walk(doc, child, out);
                out.push(')');
            } else if let Some(t) = doc.text(child) {
                let trimmed = t.trim();
                if !trimmed.is_empty() {
                    out.push('\'');
                    out.push_str(trimmed);
                    out.push('\'');
                }
            }
        }
    }
    let mut out = String::new();
    walk(doc, Document::ROOT, &mut out);
    out
}

#[test]
fn textarea_is_rcdata() {
    let doc = parse("<body><textarea><p>not a tag</p> &amp; x</textarea></body>");
    let ta = doc.elements_by_tag("textarea")[0];
    assert_eq!(doc.text_content(ta), "<p>not a tag</p> & x");
    assert!(doc.elements_by_tag("p").is_empty());
}

#[test]
fn cdata_becomes_text() {
    let doc = parse("<body><p><![CDATA[a < b & c]]></p></body>");
    let p = doc.elements_by_tag("p")[0];
    assert_eq!(doc.text_content(p), "a < b & c");
}

#[test]
fn deeply_nested_lists() {
    let doc = parse("<ul><li>a<ul><li>a1<li>a2</ul><li>b</ul>");
    assert_eq!(outline(&doc), "(html(head)(body(ul(li'a'(ul(li'a1')(li'a2')))(li'b'))))");
}

#[test]
fn comment_inside_table() {
    let doc = parse("<table><!-- layout --><tr><td>x</td></tr></table>");
    let table = doc.elements_by_tag("table")[0];
    let kinds: Vec<bool> = doc.children(table).map(|c| doc.is_element(c)).collect();
    assert_eq!(kinds, vec![false, true]); // comment then tr
}

#[test]
fn nested_font_formatting_preserved() {
    // 2006-era markup: font/center tags must survive untouched.
    let doc = parse("<body><center><font size=\"2\">old web</font></center></body>");
    assert_eq!(outline(&doc), "(html(head)(body(center(font'old web'))))");
    let font = doc.elements_by_tag("font")[0];
    assert_eq!(doc.attr(font, "size"), Some("2"));
}

#[test]
fn colgroup_and_col() {
    let doc = parse("<table><colgroup><col><col></colgroup><tr><td>x</td></tr></table>");
    assert_eq!(doc.elements_by_tag("col").len(), 2);
    assert_eq!(doc.elements_by_tag("tr").len(), 1);
}

#[test]
fn mismatched_inline_closed_at_block_boundary() {
    let doc = parse("<div><b>bold <i>both</div><p>after</p>");
    // The div end tag closes b and i.
    assert_eq!(outline(&doc), "(html(head)(body(div(b'bold'(i'both')))(p'after')))");
}

#[test]
fn unclosed_everything_at_eof() {
    let doc = parse("<div><table><tr><td><b>deep");
    assert_eq!(outline(&doc), "(html(head)(body(div(table(tr(td(b'deep')))))))");
}

#[test]
fn whitespace_only_document() {
    let doc = parse("   \n\t  ");
    assert_eq!(outline(&doc), "(html(head)(body))");
}

#[test]
fn head_after_body_content_tolerated() {
    let doc = parse("<p>x</p><title>late</title>");
    // The late title lands in body (error tolerance), not head.
    let title = doc.elements_by_tag("title")[0];
    let body = doc.body().unwrap();
    assert!(doc.is_ancestor_of(body, title));
}

#[test]
fn numeric_entities_in_attributes() {
    let doc = parse("<a href=\"x?a=1&#38;b=2\">l</a>");
    let a = doc.elements_by_tag("a")[0];
    assert_eq!(doc.attr(a, "href"), Some("x?a=1&b=2"));
}

#[test]
fn serializer_handles_all_node_kinds() {
    let doc = parse(
        "<!DOCTYPE html><!-- c --><html><head><title>t</title></head><body>x<br>y</body></html>",
    );
    let html = doc.to_html();
    assert!(html.starts_with("<!DOCTYPE html>"));
    assert!(html.contains("<!-- c -->"));
    assert!(html.contains("x<br>y"));
    // Reparse fixpoint.
    assert_eq!(parse(&html).to_html(), html);
}

#[test]
fn replace_and_reinsert_subtree() {
    let mut doc = parse("<body><div id=\"old\"><p>content</p></div></body>");
    let old = doc.elements_by_tag("div")[0];
    let new = doc.create_element_with_attrs("section", &[("id", "new")]);
    doc.replace(old, new);
    // The old subtree is detached but intact and can be reinserted.
    assert!(doc.parent(old).is_none());
    let p = doc.elements_by_tag("p");
    assert!(p.is_empty()); // p is under the detached div
    doc.append_child(new, old);
    assert_eq!(doc.elements_by_tag("p").len(), 1);
    assert!(doc
        .to_html()
        .contains("<section id=\"new\"><div id=\"old\"><p>content</p></div></section>"));
}

#[test]
fn mutation_invalidates_nothing_else() {
    let mut doc = parse("<body><ul><li>a</li><li>b</li><li>c</li></ul></body>");
    let lis = doc.elements_by_tag("li");
    doc.detach(lis[1]);
    // Remaining ids still valid and ordered.
    assert_eq!(doc.text_content(lis[0]), "a");
    assert_eq!(doc.text_content(lis[2]), "c");
    let remaining = doc.elements_by_tag("li");
    assert_eq!(remaining, vec![lis[0], lis[2]]);
}

#[test]
fn doctype_node_data() {
    let doc = parse("<!DOCTYPE html><html><body></body></html>");
    let first = doc.children(Document::ROOT).next().unwrap();
    assert!(matches!(doc.node(first).data, NodeData::Doctype(_)));
    assert_eq!(doc.doctype(first), Some("html"));
}

#[test]
fn script_with_lt_in_body_round_trips() {
    let src = "<html><head></head><body><script>for (i=0; i<10; i++) a&&b;</script></body></html>";
    let doc = parse(src);
    assert_eq!(doc.to_html(), src);
}
