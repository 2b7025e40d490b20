//! Error-tolerant tree construction.
//!
//! Implements the recovery behaviours that matter for wrapper induction
//! over real pages: implied end tags (`<li>`, `<td>`, `<tr>`, `<p>`, …),
//! void elements, head/body structure synthesis, and tolerance for stray
//! end tags. Two deliberate deviations from WHATWG, both documented in
//! DESIGN.md:
//!
//! - no `<tbody>` synthesis: `<table><tr>` keeps `tr` as a direct child of
//!   `table`, matching the DOM implied by the paper's location paths
//!   (`TABLE[3]/TR[1]`, `BODY//TABLE[1]/TR[2]/TD[2]`);
//! - no foster parenting / adoption agency: misnested formatting elements
//!   are closed where their nearest enclosing scope ends.

use std::collections::HashSet;
use std::ops::Range;

use crate::atom::{names::*, Atom, Names, STATIC_LEN};
use crate::dom::{Document, NodeId};
use crate::tokenizer::{tokenize, Sink, StartTag};

/// Parse an HTML string into a [`Document`].
pub fn parse(html: &str) -> Document {
    let mut builder = Builder::new(html.len());
    tokenize(html, &mut builder);
    builder.finish()
}

/// "Not open" in [`Builder::topmost`] and [`Open::below`].
const NONE: u32 = u32::MAX;

/// An entry of the open-element stack.
struct Open {
    node: NodeId,
    name: Atom,
    /// Stack index of the next open element below with the same name.
    below: u32,
}

/// An attribute of an `<html>`, `<head>` or `<body>` start tag, held by
/// the [`Builder`] until [`Builder::finish`]. Its value is a range of
/// `Builder::merged_values`.
struct Merged {
    el: NodeId,
    name: Atom,
    value: Range<usize>,
}

struct Builder {
    doc: Document,
    /// Open elements below `body` (or below `head` for head content).
    stack: Vec<Open>,
    /// Per atom: stack index of the topmost open element with that name,
    /// so implied and explicit end tags find their target in O(1) however
    /// deep the stack is.
    topmost: Vec<u32>,
    html: Option<NodeId>,
    head: Option<NodeId>,
    body: Option<NodeId>,
    /// True once body content has started; head elements seen after this
    /// point are appended to the body instead.
    in_body: bool,
    /// Set while the insertion point is inside `<head>` (e.g. `<title>`).
    head_stack: bool,
    /// Attributes of `<html>`, `<head>` and `<body>` start tags, which
    /// merge into the one element of each name, the first value of a name
    /// winning. Holding them until `finish` keeps both arenas growing only
    /// at the end while parsing, so a text node is always extended in
    /// place, however many such tags interrupt it.
    merged: Vec<Merged>,
    merged_values: String,
    /// The `(element, name)` pairs in `merged`.
    merged_names: HashSet<(NodeId, Atom)>,
}

impl Builder {
    fn new(input_len: usize) -> Builder {
        // Node and attribute arenas are sized for typical markup (about 25
        // input bytes per node and 55 per attribute) and grow past that.
        // The string buffer is sized to the input, which bounds it: every
        // payload byte copies a distinct input byte, and decoding a
        // character reference only shrinks it.
        let doc = Document::with_capacity(input_len / 24 + 8, input_len / 48, input_len);
        Builder {
            doc,
            stack: Vec::with_capacity(64),
            topmost: vec![NONE; STATIC_LEN],
            html: None,
            head: None,
            body: None,
            in_body: false,
            head_stack: false,
            merged: Vec::new(),
            merged_values: String::new(),
            merged_names: HashSet::new(),
        }
    }

    fn ensure_html(&mut self) -> NodeId {
        if let Some(h) = self.html {
            return h;
        }
        let h = self.doc.create_element_from(HTML, std::iter::empty());
        self.doc.append_new(Document::ROOT, h);
        self.html = Some(h);
        h
    }

    fn ensure_head(&mut self) -> NodeId {
        if let Some(h) = self.head {
            return h;
        }
        let html = self.ensure_html();
        let h = self.doc.create_element_from(HEAD, std::iter::empty());
        self.doc.append_new(html, h);
        self.head = Some(h);
        h
    }

    fn ensure_body(&mut self) -> NodeId {
        if let Some(b) = self.body {
            self.in_body = true;
            return b;
        }
        // Make sure head exists (possibly empty) before body, so documents
        // always have the html > head + body shape.
        self.ensure_head();
        let html = self.ensure_html();
        let b = self.doc.create_element_from(BODY, std::iter::empty());
        self.doc.append_new(html, b);
        self.body = Some(b);
        self.in_body = true;
        self.head_stack = false;
        b
    }

    /// Current insertion parent.
    fn parent(&mut self) -> NodeId {
        if let Some(top) = self.stack.last() {
            return top.node;
        }
        if self.head_stack {
            return self.ensure_head();
        }
        self.ensure_body()
    }

    // ---- the open-element stack ----------------------------------------------

    fn push(&mut self, node: NodeId, name: Atom) {
        if name.index() >= self.topmost.len() {
            self.topmost.resize(name.index() + 1, NONE);
        }
        let slot = &mut self.topmost[name.index()];
        self.stack.push(Open { node, name, below: *slot });
        *slot = u32::try_from(self.stack.len() - 1).expect("stack depth fits the node ids");
    }

    /// Pop every open element at stack index `i` and above.
    fn truncate(&mut self, i: usize) {
        while self.stack.len() > i {
            let open = self.stack.pop().expect("stack is longer than i");
            self.topmost[open.name.index()] = open.below;
        }
    }

    /// Stack index of the topmost open element named `name`.
    fn nearest(&self, name: Atom) -> Option<usize> {
        self.topmost.get(name.index()).filter(|&&i| i != NONE).map(|&i| i as usize)
    }

    fn merge_attrs(&mut self, el: NodeId, tag: &StartTag<'_>) {
        for (name, v) in tag.attrs() {
            if self.merged_names.insert((el, name)) {
                let start = self.merged_values.len();
                self.merged_values.push_str(v);
                self.merged.push(Merged { el, name, value: start..self.merged_values.len() });
            }
        }
    }

    /// Close elements whose end tag is implied by the start of `name`.
    fn auto_close(&mut self, name: Atom) {
        match name {
            LI => self.pop_to_nearest(&[LI], &[UL, OL]),
            DT | DD => self.pop_to_nearest(&[DT, DD], &[DL]),
            OPTION => self.pop_to_nearest(&[OPTION], &[SELECT]),
            OPTGROUP => {
                self.pop_to_nearest(&[OPTION], &[SELECT]);
                self.pop_to_nearest(&[OPTGROUP], &[SELECT]);
            }
            TD | TH => self.pop_to_nearest(&[TD, TH], &[TABLE, TR]),
            TR => {
                // A new row closes any open cell and the previous row.
                self.pop_to_nearest(&[TR], &[TABLE]);
                self.pop_to_nearest(&[TD, TH], &[TABLE]);
            }
            TBODY | THEAD | TFOOT => {
                self.pop_to_nearest(&[TR], &[TABLE]);
                self.pop_to_nearest(&[TD, TH], &[TABLE]);
                self.pop_to_nearest(&[TBODY, THEAD, TFOOT], &[TABLE]);
            }
            COL => self.pop_to_nearest(&[COL], &[COLGROUP, TABLE]),
            _ => {}
        }
        if name.closes_p() {
            self.pop_to_nearest(&[P], &[TABLE, TD, TH, CAPTION]);
        }
    }

    /// If one of `targets` is open above every open element of `scopes`
    /// (that is: searching from the top of the stack, a target comes
    /// before any scope), pop everything down to and including the nearest
    /// target.
    fn pop_to_nearest(&mut self, targets: &[Atom], scopes: &[Atom]) {
        let Some(target) = targets.iter().filter_map(|&t| self.nearest(t)).max() else {
            return;
        };
        if scopes.iter().filter_map(|&s| self.nearest(s)).all(|s| s < target) {
            self.truncate(target);
        }
    }

    fn finish(mut self) -> Document {
        // Guarantee the html/head/body skeleton even for empty input.
        self.ensure_body();
        for el in [self.html, self.head, self.body].into_iter().flatten() {
            let attrs = self
                .merged
                .iter()
                .filter(|m| m.el == el)
                .map(|m| (m.name, &self.merged_values[m.value.clone()]));
            self.doc.set_attrs_from(el, attrs);
        }
        self.doc
    }
}

impl Sink for Builder {
    fn names(&mut self) -> &mut Names {
        self.doc.names_mut()
    }

    fn doctype(&mut self, content: &str) {
        if self.html.is_none() {
            let dt = self.doc.create_doctype(content);
            self.doc.append_new(Document::ROOT, dt);
        }
    }

    fn comment(&mut self, text: &str) {
        let c = self.doc.create_comment(text);
        let parent = if self.html.is_none() && self.stack.is_empty() {
            Document::ROOT
        } else {
            self.parent()
        };
        self.doc.append_new(parent, c);
    }

    fn text(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        if self.stack.is_empty()
            && !self.in_body
            && !self.head_stack
            && text.chars().all(char::is_whitespace)
        {
            // Inter-element whitespace before content starts: drop it, as
            // browsers effectively do for the before-head/before-body modes.
            return;
        }
        let parent = self.parent();
        // Merge with a trailing text node so "a&amp;b" becomes one node.
        if let Some(last) = self.doc.last_child(parent) {
            if self.doc.is_text(last) {
                self.doc.append_text(last, text);
                return;
            }
        }
        let t = self.doc.create_text(text);
        self.doc.append_new(parent, t);
    }

    fn start_tag(&mut self, tag: &StartTag<'_>) {
        let name = tag.name;
        match name {
            HTML => {
                let h = self.ensure_html();
                self.merge_attrs(h, tag);
                return;
            }
            HEAD => {
                let h = self.ensure_head();
                self.merge_attrs(h, tag);
                if !self.in_body {
                    self.head_stack = true;
                }
                return;
            }
            BODY => {
                let b = self.ensure_body();
                self.merge_attrs(b, tag);
                return;
            }
            _ => {}
        }

        let keeps_open = !name.is_void() && !tag.self_closing;
        if name.is_head_element() && !self.in_body && self.stack.is_empty() {
            self.head_stack = true;
            let head = self.ensure_head();
            let el = self.doc.create_element_from(name, tag.attrs());
            self.doc.append_new(head, el);
            if keeps_open {
                self.push(el, name);
            }
            return;
        }

        // A non-head element at the top level ends the head phase.
        if self.head_stack && self.stack.is_empty() {
            self.head_stack = false;
        }
        self.auto_close(name);
        let parent = self.parent();
        let el = self.doc.create_element_from(name, tag.attrs());
        self.doc.append_new(parent, el);
        if keeps_open {
            self.push(el, name);
        }
    }

    fn end_tag(&mut self, name: Atom) {
        match name {
            HTML | BODY => return, // structure is synthesised
            HEAD => {
                self.head_stack = false;
                self.truncate(0);
                return;
            }
            _ => {}
        }
        // Pop through the nearest matching open element. Unmatched end tags
        // are ignored: `</p>` with no open `<p>` (browsers synthesise an
        // empty element; for extraction purposes dropping it is enough),
        // `</br>`, and any other stray end tag. Leaving a head element like
        // `</title>` keeps us in head until body content arrives.
        if let Some(i) = self.nearest(name) {
            self.truncate(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn skeleton_synthesised() {
        let doc = parse("hello");
        assert_eq!(outline(&doc), "(html(head)(body'hello'))");
    }

    #[test]
    fn explicit_structure_preserved() {
        let doc = parse("<html><head><title>T</title></head><body><p>x</p></body></html>");
        assert_eq!(outline(&doc), "(html(head(title'T'))(body(p'x')))");
    }

    #[test]
    fn li_implies_end() {
        let doc = parse("<ul><li>a<li>b<li>c</ul>");
        assert_eq!(outline(&doc), "(html(head)(body(ul(li'a')(li'b')(li'c'))))");
    }

    #[test]
    fn table_cells_imply_ends_no_tbody() {
        let doc = parse("<table><tr><td>a<td>b<tr><td>c</table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td'a')(td'b'))(tr(td'c')))))");
    }

    #[test]
    fn explicit_tbody_kept() {
        let doc = parse("<table><tbody><tr><td>a</td></tr></tbody></table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tbody(tr(td'a'))))))");
    }

    #[test]
    fn nested_table_inside_cell() {
        let doc = parse("<table><tr><td><table><tr><td>x</table></table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td(table(tr(td'x'))))))))");
    }

    #[test]
    fn p_closed_by_block() {
        let doc = parse("<p>a<div>b</div><p>c<p>d");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')(div'b')(p'c')(p'd')))");
    }

    #[test]
    fn void_elements_have_no_children() {
        let doc = parse("Run<br>time<hr><img src=x>z");
        assert_eq!(outline(&doc), "(html(head)(body'Run'(br)'time'(hr)(img)'z'))");
    }

    #[test]
    fn unclosed_inline_closed_by_cell_boundary() {
        let doc = parse("<table><tr><td><b>x<td>y</table>");
        assert_eq!(outline(&doc), "(html(head)(body(table(tr(td(b'x'))(td'y')))))");
    }

    #[test]
    fn stray_end_tags_ignored() {
        let doc = parse("</div><p>a</span></p>");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')))");
    }

    #[test]
    fn head_elements_routed_to_head() {
        let doc = parse("<title>T</title><meta charset=utf-8><p>b</p>");
        assert_eq!(outline(&doc), "(html(head(title'T')(meta))(body(p'b')))");
    }

    #[test]
    fn script_after_body_stays_in_body() {
        let doc = parse("<p>a</p><script>1<2</script>");
        assert_eq!(outline(&doc), "(html(head)(body(p'a')(script'1<2')))");
    }

    #[test]
    fn doctype_and_comment_at_root() {
        let doc = parse("<!DOCTYPE html><!-- c --><p>x</p>");
        let root_kinds: Vec<bool> =
            doc.children(Document::ROOT).map(|c| doc.is_element(c)).collect();
        // doctype, comment, html
        assert_eq!(root_kinds, vec![false, false, true]);
        assert_eq!(outline(&doc), "(html(head)(body(p'x')))");
    }

    #[test]
    fn adjacent_text_tokens_merged() {
        let doc = parse("<p>a&amp;b</p>");
        let p = doc.elements_by_tag("p")[0];
        let kids: Vec<NodeId> = doc.children(p).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.text(kids[0]), Some("a&b"));
    }

    #[test]
    fn repeated_skeleton_tags_merge_attributes() {
        let doc = parse("<html lang=en>x<body class=a>y<body class=b id=c><html dir=ltr lang=fr>z");
        let attrs = |id| -> Vec<(&str, &str)> {
            doc.element(id).unwrap().attrs.iter().map(|a| (a.name, a.value)).collect()
        };
        assert_eq!(attrs(doc.html_element().unwrap()), [("lang", "en"), ("dir", "ltr")]);
        let body = doc.body().unwrap();
        assert_eq!(attrs(body), [("class", "a"), ("id", "c")]);
        let kids: Vec<NodeId> = doc.children(body).collect();
        assert_eq!(kids.len(), 1);
        assert_eq!(doc.text(kids[0]), Some("xyz"));
    }

    #[test]
    fn dl_dt_dd_sequence() {
        let doc = parse("<dl><dt>t<dd>d<dt>t2</dl>");
        assert_eq!(outline(&doc), "(html(head)(body(dl(dt't')(dd'd')(dt't2'))))");
    }

    #[test]
    fn select_options() {
        let doc = parse("<select><option>a<option selected>b</select>");
        assert_eq!(outline(&doc), "(html(head)(body(select(option'a')(option'b'))))");
    }

    #[test]
    fn paper_figure4_fragment_shape() {
        // The left page of Figure 4 in the paper.
        let doc = parse(
            "<BODY><TR></TR><TR><TD>\
             <B>Runtime:</B> 108 min <BR>\
             <B>Country:</B> USA/UK <BR>\
             <B>Language:</B> English <BR>\
             </TD></TR></BODY>",
        );
        // TRs without a table survive as children of body (error tolerance,
        // matching the paper's abstracted markup).
        let body = doc.body().unwrap();
        let trs: Vec<&str> = doc.child_elements(body).map(|c| doc.tag_name(c).unwrap()).collect();
        assert_eq!(trs, vec!["tr", "tr"]);
        let td = doc.elements_by_tag("td")[0];
        assert!(doc.text_content(td).contains("108 min"));
    }
}
