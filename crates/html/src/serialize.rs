//! DOM → HTML text.

use crate::dom::{Document, NodeData, NodeId};
use crate::entities::{push_escaped_attr, push_escaped_text};

impl Document {
    /// Serialise the whole document.
    pub fn to_html(&self) -> String {
        self.inner_html(Document::ROOT)
    }

    /// Serialise one node including its own tags ("outer HTML").
    pub fn outer_html(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.write_node(id, &mut out);
        out
    }

    /// Serialise a node's children only ("inner HTML").
    pub fn inner_html(&self, id: NodeId) -> String {
        let mut out = String::new();
        for child in self.children(id) {
            self.write_node(child, &mut out);
        }
        out
    }

    /// Serialise the subtree at `top` in one pre-order walk over the tree
    /// links: no recursion, so nesting depth cannot overflow the stack.
    fn write_node(&self, top: NodeId, out: &mut String) {
        let mut cur = top;
        loop {
            if self.write_open(cur, out) {
                if let Some(child) = self.first_child(cur) {
                    cur = child;
                    continue;
                }
                self.write_close(cur, out);
            }
            // Climb until a next sibling, closing the elements left behind.
            loop {
                if cur == top {
                    return;
                }
                if let Some(next) = self.next_sibling(cur) {
                    cur = next;
                    break;
                }
                cur = self.parent(cur).expect("a node below `top` has a parent");
                self.write_close(cur, out);
            }
        }
    }

    /// Write everything of `id` that precedes its children; false when its
    /// children are not serialised (leaves and void elements).
    fn write_open(&self, id: NodeId, out: &mut String) -> bool {
        match self.node(id).data {
            NodeData::Document => true,
            NodeData::Doctype(_) => {
                out.push_str("<!DOCTYPE ");
                out.push_str(self.doctype(id).unwrap_or_default());
                out.push('>');
                false
            }
            NodeData::Comment(_) => {
                out.push_str("<!--");
                out.push_str(self.comment(id).unwrap_or_default());
                out.push_str("-->");
                false
            }
            NodeData::Text(_) => {
                let text = self.text(id).unwrap_or_default();
                // Raw-text elements must not be entity-escaped.
                let parent_tag = self.parent(id).and_then(|p| self.tag_name(p));
                if matches!(parent_tag, Some("script") | Some("style")) {
                    out.push_str(text);
                } else {
                    push_escaped_text(out, text);
                }
                false
            }
            NodeData::Element(_) => {
                let el = self.element(id).expect("element node");
                out.push('<');
                out.push_str(el.name);
                for attr in el.attrs {
                    out.push(' ');
                    out.push_str(attr.name);
                    out.push_str("=\"");
                    push_escaped_attr(out, attr.value);
                    out.push('"');
                }
                out.push('>');
                !crate::is_void(el.name)
            }
        }
    }

    /// Write the end tag of an element whose children were serialised.
    fn write_close(&self, id: NodeId, out: &mut String) {
        if let Some(name) = self.tag_name(id) {
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::parse;

    #[test]
    fn round_trip_simple() {
        let html = "<html><head></head><body><p id=\"a\">x &amp; y</p></body></html>";
        let doc = parse(html);
        assert_eq!(doc.to_html(), html);
    }

    #[test]
    fn void_elements_not_closed() {
        let doc = parse("<body>a<br>b</body>");
        assert!(doc.to_html().contains("a<br>b"));
        assert!(!doc.to_html().contains("</br>"));
    }

    #[test]
    fn attrs_quoted_and_escaped() {
        let mut doc = Document::new();
        let el = doc.create_element_with_attrs("a", &[("href", "x?a=1&b=\"2\"")]);
        doc.append_child(Document::ROOT, el);
        assert_eq!(doc.outer_html(el), "<a href=\"x?a=1&amp;b=&quot;2&quot;\"></a>");
    }

    #[test]
    fn script_content_not_escaped() {
        let doc = parse("<body><script>a < b && c</script></body>");
        assert!(doc.to_html().contains("<script>a < b && c</script>"));
    }

    #[test]
    fn text_escaped_in_normal_context() {
        let mut doc = Document::new();
        let p = doc.create_element("p");
        let t = doc.create_text("1 < 2 & 3 > 2");
        doc.append_child(Document::ROOT, p);
        doc.append_child(p, t);
        assert_eq!(doc.outer_html(p), "<p>1 &lt; 2 &amp; 3 &gt; 2</p>");
    }

    #[test]
    fn inner_vs_outer() {
        let doc = parse("<body><div><p>x</p></div></body>");
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.outer_html(div), "<div><p>x</p></div>");
        assert_eq!(doc.inner_html(div), "<p>x</p>");
    }

    #[test]
    fn void_element_children_not_serialised() {
        let mut doc = Document::new();
        let br = doc.create_element("br");
        let t = doc.create_text("lost");
        doc.append_child(Document::ROOT, br);
        doc.append_child(br, t);
        assert_eq!(doc.to_html(), "<br>");
    }

    #[test]
    fn nested_subtree_closes_in_order() {
        let doc = parse("<body><div><p>a<b>b</b></p><!--c--></div><i>d</i></body>");
        let div = doc.elements_by_tag("div")[0];
        assert_eq!(doc.outer_html(div), "<div><p>a<b>b</b></p><!--c--></div>");
        assert_eq!(doc.outer_html(doc.elements_by_tag("b")[0]), "<b>b</b>");
    }

    #[test]
    fn reparse_fixpoint() {
        // serialize(parse(x)) is a fixpoint: parsing its own output again
        // yields the same output.
        let messy = "<ul><li>a<li>b<table><tr><td>c<td>d</table>";
        let once = parse(messy).to_html();
        let twice = parse(&once).to_html();
        assert_eq!(once, twice);
    }
}
