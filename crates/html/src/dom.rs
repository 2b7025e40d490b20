//! Mutable arena DOM.
//!
//! Nodes live in a flat `Vec` and link to each other through [`NodeId`]
//! indices (parent / siblings / first-last child). Detaching a node leaves
//! its arena slot in place (ids stay stable, as Retrozilla's mapping rules
//! capture node locations and must not be invalidated by unrelated
//! mutations); detached subtrees simply become unreachable from the root.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;

use crate::atom::{Atom, Names};

/// A string-buffer or attribute-arena offset. Arenas are indexed by `u32`
/// to keep nodes small; a document whose payload outgrows 4 GiB panics.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("document arena exceeds u32 range")
}

/// Index of a node in a [`Document`] arena.
///
/// Ids are only meaningful for the document that created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A `u32` range into one of a document's arenas: bytes of its string
/// buffer (the payload of a text, comment or doctype node, or an attribute
/// value) or an element's run of its attribute arena. Only meaningful for
/// the document that holds it; read payloads through [`Document::text`],
/// [`Document::comment`], [`Document::doctype`] and [`Document::element`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    start: u32,
    end: u32,
}

impl Span {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Payload of an element node: its interned name and its run of the
/// document's attribute arena. Read it through [`Document::element`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElementData {
    name: Atom,
    attrs: Span,
}

/// One slot of the document-level attribute arena.
#[derive(Clone, Copy, Debug)]
struct AttrSlot {
    name: Atom,
    value: Span,
}

/// What a node is. The payloads are handles into the document's arenas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum NodeData {
    /// The document root (exactly one per arena, always [`Document::ROOT`]).
    Document,
    Doctype(Span),
    Element(ElementData),
    Text(Span),
    Comment(Span),
}

/// "No node" in a [`Node`] link.
const NONE: u32 = u32::MAX;

/// A node: tree links plus payload. The links are node indices, `NONE`
/// where there is no such node, and are read through the [`Document`]
/// accessors ([`Document::parent`], [`Document::first_child`], ...).
#[derive(Clone, Debug)]
pub struct Node {
    parent: u32,
    prev: u32,
    next: u32,
    first_child: u32,
    last_child: u32,
    pub data: NodeData,
}

impl Node {
    fn new(data: NodeData) -> Node {
        Node { parent: NONE, prev: NONE, next: NONE, first_child: NONE, last_child: NONE, data }
    }
}

fn linked(link: u32) -> Option<NodeId> {
    (link != NONE).then_some(NodeId(link))
}

/// An element, read from its document. Tag and attribute names are
/// lowercase; the XPath engine matches case-insensitively for HTML
/// fidelity with the paper's uppercase paths (`BODY[1]/DIV[2]/...`).
#[derive(Clone, Copy, Debug)]
pub struct Element<'d> {
    pub name: &'d str,
    pub attrs: Attrs<'d>,
}

impl<'d> Element<'d> {
    /// Value of the attribute `name` (case-insensitive).
    pub fn attr(&self, name: &str) -> Option<&'d str> {
        self.attrs.iter().find(|a| a.name.eq_ignore_ascii_case(name)).map(|a| a.value)
    }
}

/// A single attribute, read from its document. Names are lowercase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attr<'d> {
    pub name: &'d str,
    pub value: &'d str,
}

/// An element's attributes, in source order.
#[derive(Clone, Copy)]
pub struct Attrs<'d> {
    doc: &'d Document,
    slots: &'d [AttrSlot],
}

impl<'d> Attrs<'d> {
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    pub fn get(&self, index: usize) -> Option<Attr<'d>> {
        self.slots.get(index).map(|&slot| self.doc.attr_of(slot))
    }

    pub fn iter(&self) -> AttrIter<'d> {
        AttrIter { doc: self.doc, slots: self.slots.iter() }
    }
}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'d> IntoIterator for Attrs<'d> {
    type Item = Attr<'d>;
    type IntoIter = AttrIter<'d>;

    fn into_iter(self) -> AttrIter<'d> {
        self.iter()
    }
}

impl<'d> IntoIterator for &Attrs<'d> {
    type Item = Attr<'d>;
    type IntoIter = AttrIter<'d>;

    fn into_iter(self) -> AttrIter<'d> {
        self.iter()
    }
}

pub struct AttrIter<'d> {
    doc: &'d Document,
    slots: std::slice::Iter<'d, AttrSlot>,
}

impl<'d> Iterator for AttrIter<'d> {
    type Item = Attr<'d>;

    fn next(&mut self) -> Option<Attr<'d>> {
        self.slots.next().map(|&slot| self.doc.attr_of(slot))
    }
}

/// Write access to one element's attributes.
pub struct ElementMut<'d> {
    doc: &'d mut Document,
    id: NodeId,
}

impl ElementMut<'_> {
    /// Set attribute `name` (case-insensitive), replacing an existing
    /// value. Values are appended to the string buffer; a new attribute is
    /// appended to the attribute arena, after moving the element's run to
    /// the end of the arena if it is not there already. Replaced bytes and
    /// slots stay in their arenas, unused, until the document drops.
    pub fn set_attr(&mut self, name: &str, value: &str) {
        self.doc.set_attr(self.id, name, value);
    }
}

/// An HTML document: an arena of nodes rooted at [`Document::ROOT`], plus
/// the arenas their payloads live in (see the crate docs for the layout).
#[derive(Clone, Debug)]
pub struct Document {
    nodes: Vec<Node>,
    /// Every element's attributes; each element owns one contiguous run.
    attrs: Vec<AttrSlot>,
    /// Text, comment and doctype payloads and attribute values.
    buf: String,
    names: Names,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// Id of the document node.
    pub const ROOT: NodeId = NodeId(0);

    /// An empty document containing only the document node.
    pub fn new() -> Document {
        Document::with_capacity(0, 0, 0)
    }

    /// An empty document with room for `nodes` nodes, `attrs` attributes
    /// and `bytes` bytes of payload before any arena grows.
    pub(crate) fn with_capacity(nodes: usize, attrs: usize, bytes: usize) -> Document {
        let mut doc = Document {
            nodes: Vec::with_capacity(nodes.max(1)),
            attrs: Vec::with_capacity(attrs),
            buf: String::with_capacity(bytes),
            names: Names::default(),
        };
        doc.nodes.push(Node::new(NodeData::Document));
        doc
    }

    /// Number of arena slots (including detached nodes).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    pub fn root(&self) -> NodeId {
        Self::ROOT
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    // ---- arenas ------------------------------------------------------------

    /// Append `text` to the string buffer.
    fn store(&mut self, text: &str) -> Span {
        let start = self.buf.len();
        self.buf.push_str(text);
        Span { start: offset(start), end: offset(self.buf.len()) }
    }

    fn str(&self, span: Span) -> &str {
        &self.buf[span.range()]
    }

    fn attr_of(&self, slot: AttrSlot) -> Attr<'_> {
        Attr { name: self.names.name(slot.name), value: self.str(slot.value) }
    }

    fn attr_slots(&self, el: ElementData) -> &[AttrSlot] {
        &self.attrs[el.attrs.range()]
    }

    fn element_data(&self, id: NodeId) -> Option<ElementData> {
        match self.nodes[id.index()].data {
            NodeData::Element(el) => Some(el),
            _ => None,
        }
    }

    // ---- construction -----------------------------------------------------

    fn push(&mut self, node: Node) -> NodeId {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != NONE)
            .expect("a document holds fewer than 2^32 - 1 nodes");
        self.nodes.push(node);
        NodeId(id)
    }

    /// Append `attrs` to the attribute arena; their run.
    fn push_attrs<'v>(&mut self, attrs: impl Iterator<Item = (Atom, &'v str)>) -> Span {
        let start = offset(self.attrs.len());
        for (name, value) in attrs {
            let value = self.store(value);
            self.attrs.push(AttrSlot { name, value });
        }
        Span { start, end: offset(self.attrs.len()) }
    }

    /// A new element whose attributes are the `attrs` pairs; the tree
    /// builder's path, where the tokenizer has already dropped duplicates.
    pub(crate) fn create_element_from<'v>(
        &mut self,
        name: Atom,
        attrs: impl Iterator<Item = (Atom, &'v str)>,
    ) -> NodeId {
        let attrs = self.push_attrs(attrs);
        self.push(Node::new(NodeData::Element(ElementData { name, attrs })))
    }

    /// Give `id`, an element without attributes, the `attrs` pairs. The
    /// tree builder's path for the merged attributes of `<html>`, `<head>`
    /// and `<body>`.
    pub(crate) fn set_attrs_from<'v>(
        &mut self,
        id: NodeId,
        attrs: impl Iterator<Item = (Atom, &'v str)>,
    ) {
        let mut el = self.element_data(id).expect("set_attrs_from on non-element node");
        assert_eq!(el.attrs.start, el.attrs.end, "element already has attributes");
        el.attrs = self.push_attrs(attrs);
        self.nodes[id.index()].data = NodeData::Element(el);
    }

    /// The document's name table, for the tokenizer to resolve names in.
    pub(crate) fn names_mut(&mut self) -> &mut Names {
        &mut self.names
    }

    /// The atom of an already-interned name.
    pub(crate) fn atom(&self, name: &str) -> Option<Atom> {
        self.names.get(name)
    }

    pub fn create_element(&mut self, name: &str) -> NodeId {
        let name = self.names.intern(name);
        self.create_element_from(name, std::iter::empty())
    }

    pub fn create_element_with_attrs(&mut self, name: &str, attrs: &[(&str, &str)]) -> NodeId {
        let el = self.create_element(name);
        for (k, v) in attrs {
            self.set_attr(el, k, v);
        }
        el
    }

    pub fn create_text(&mut self, text: &str) -> NodeId {
        let span = self.store(text);
        self.push(Node::new(NodeData::Text(span)))
    }

    pub fn create_comment(&mut self, text: &str) -> NodeId {
        let span = self.store(text);
        self.push(Node::new(NodeData::Comment(span)))
    }

    pub fn create_doctype(&mut self, name: &str) -> NodeId {
        let span = self.store(name);
        self.push(Node::new(NodeData::Doctype(span)))
    }

    // ---- mutation ----------------------------------------------------------

    /// Append `child` as the last child of `parent`. The child is detached
    /// from any previous location first.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) {
        assert_ne!(parent, child, "node cannot be its own child");
        // Only a node with children can be a strict ancestor; skipping the
        // walk for leaves keeps debug-build parsing linear in depth.
        debug_assert!(
            self.first_child(child).is_none() || !self.is_ancestor_of(child, parent),
            "append would create a cycle"
        );
        self.detach(child);
        self.append_new(parent, child);
    }

    /// Append `child`, which is linked to no parent or sibling (a node
    /// just created, or just detached), as the last child of `parent`:
    /// [`append_child`](Self::append_child) without the detach. The tree
    /// builder's path.
    pub(crate) fn append_new(&mut self, parent: NodeId, child: NodeId) {
        let old_last = self.nodes[parent.index()].last_child;
        let c = &mut self.nodes[child.index()];
        debug_assert!(c.parent == NONE && c.prev == NONE && c.next == NONE, "child is linked");
        c.parent = parent.0;
        c.prev = old_last;
        match linked(old_last) {
            Some(last) => self.nodes[last.index()].next = child.0,
            None => self.nodes[parent.index()].first_child = child.0,
        }
        self.nodes[parent.index()].last_child = child.0;
    }

    /// Insert `child` immediately before `before` (which must be a child of
    /// `parent`).
    pub fn insert_before(&mut self, parent: NodeId, child: NodeId, before: NodeId) {
        assert_eq!(self.parent(before), Some(parent), "`before` is not a child of `parent`");
        assert_ne!(child, before);
        self.detach(child);
        let prev = self.nodes[before.index()].prev;
        {
            let c = &mut self.nodes[child.index()];
            c.parent = parent.0;
            c.prev = prev;
            c.next = before.0;
        }
        self.nodes[before.index()].prev = child.0;
        match linked(prev) {
            Some(p) => self.nodes[p.index()].next = child.0,
            None => self.nodes[parent.index()].first_child = child.0,
        }
    }

    /// Unlink a node from its parent and siblings. The subtree below the
    /// node stays intact and can be re-inserted elsewhere.
    pub fn detach(&mut self, id: NodeId) {
        let (parent, prev, next) = {
            let n = &self.nodes[id.index()];
            (n.parent, n.prev, n.next)
        };
        if let Some(p) = linked(prev) {
            self.nodes[p.index()].next = next;
        }
        if let Some(nx) = linked(next) {
            self.nodes[nx.index()].prev = prev;
        }
        if let Some(pa) = linked(parent) {
            if self.nodes[pa.index()].first_child == id.0 {
                self.nodes[pa.index()].first_child = next;
            }
            if self.nodes[pa.index()].last_child == id.0 {
                self.nodes[pa.index()].last_child = prev;
            }
        }
        let n = &mut self.nodes[id.index()];
        n.parent = NONE;
        n.prev = NONE;
        n.next = NONE;
    }

    /// Replace `old` with `new` in the tree; `old` becomes detached.
    pub fn replace(&mut self, old: NodeId, new: NodeId) {
        let parent = self.parent(old).expect("replace target must be attached");
        self.insert_before(parent, new, old);
        self.detach(old);
    }

    /// Set the text of a text node. Panics on non-text nodes. The new text
    /// is appended to the string buffer; the old bytes stay there, unused,
    /// until the document drops.
    pub fn set_text(&mut self, id: NodeId, text: &str) {
        assert!(self.is_text(id), "set_text on non-text node");
        let span = self.store(text);
        self.nodes[id.index()].data = NodeData::Text(span);
    }

    /// Append `more` to a text node's text: in place when its text is the
    /// last thing in the string buffer, by copying it to the end otherwise.
    /// While parsing, the text the tree builder merges into always ends the
    /// buffer, so adjacent text costs no copy.
    pub(crate) fn append_text(&mut self, id: NodeId, more: &str) {
        let NodeData::Text(span) = self.nodes[id.index()].data else {
            panic!("append_text on non-text node");
        };
        let start = if span.end as usize == self.buf.len() {
            span.start
        } else {
            let start = offset(self.buf.len());
            self.buf.extend_from_within(span.range());
            start
        };
        self.buf.push_str(more);
        self.nodes[id.index()].data = NodeData::Text(Span { start, end: offset(self.buf.len()) });
    }

    /// See [`ElementMut::set_attr`]. Panics on non-element nodes.
    fn set_attr(&mut self, id: NodeId, name: &str, value: &str) {
        let mut el = self.element_data(id).expect("set_attr on non-element node");
        let name = self.names.intern(name);
        let value = self.store(value);
        if let Some(slot) = self.attrs[el.attrs.range()].iter_mut().find(|s| s.name == name) {
            slot.value = value;
            return;
        }
        if el.attrs.end as usize != self.attrs.len() {
            let start = offset(self.attrs.len());
            self.attrs.extend_from_within(el.attrs.range());
            el.attrs = Span { start, end: offset(self.attrs.len()) };
        }
        self.attrs.push(AttrSlot { name, value });
        el.attrs.end += 1;
        self.nodes[id.index()].data = NodeData::Element(el);
    }

    // ---- queries -----------------------------------------------------------

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        linked(self.nodes[id.index()].parent)
    }

    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        linked(self.nodes[id.index()].first_child)
    }

    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        linked(self.nodes[id.index()].last_child)
    }

    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        linked(self.nodes[id.index()].next)
    }

    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        linked(self.nodes[id.index()].prev)
    }

    pub fn is_element(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].data, NodeData::Element(_))
    }

    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()].data, NodeData::Text(_))
    }

    /// Lowercase tag name for element nodes.
    pub fn tag_name(&self, id: NodeId) -> Option<&str> {
        self.element_data(id).map(|el| self.names.name(el.name))
    }

    pub fn element(&self, id: NodeId) -> Option<Element<'_>> {
        self.element_data(id).map(|el| Element {
            name: self.names.name(el.name),
            attrs: Attrs { doc: self, slots: self.attr_slots(el) },
        })
    }

    pub fn element_mut(&mut self, id: NodeId) -> Option<ElementMut<'_>> {
        self.element_data(id)?;
        Some(ElementMut { doc: self, id })
    }

    /// Value of attribute `name` (case-insensitive) of an element.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        self.element(id).and_then(|el| el.attr(name))
    }

    /// Text of a text node (not the recursive string value; see
    /// [`Document::text_content`]).
    pub fn text(&self, id: NodeId) -> Option<&str> {
        match self.nodes[id.index()].data {
            NodeData::Text(span) => Some(self.str(span)),
            _ => None,
        }
    }

    /// Text of a comment node.
    pub fn comment(&self, id: NodeId) -> Option<&str> {
        match self.nodes[id.index()].data {
            NodeData::Comment(span) => Some(self.str(span)),
            _ => None,
        }
    }

    /// Content of a doctype node (`html` for `<!DOCTYPE html>`).
    pub fn doctype(&self, id: NodeId) -> Option<&str> {
        match self.nodes[id.index()].data {
            NodeData::Doctype(span) => Some(self.str(span)),
            _ => None,
        }
    }

    /// Concatenated text of all descendant text nodes (the XPath
    /// "string-value" of an element). Iterative, so nesting depth can
    /// never overflow the stack.
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.descendants_and_self(id) {
            if let Some(t) = self.text(n) {
                out.push_str(t);
            }
        }
        out
    }

    /// True when `anc` is a strict ancestor of `id`.
    pub fn is_ancestor_of(&self, anc: NodeId, id: NodeId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    // ---- traversal ---------------------------------------------------------

    /// Children of a node, in order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, cur: self.first_child(id) }
    }

    /// Child element nodes only.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.children(id).filter(move |&c| self.is_element(c))
    }

    /// Strict ancestors, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, cur: self.parent(id) }
    }

    /// Pre-order descendants of `id`, excluding `id` itself.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { doc: self, root: id, cur: self.first_child(id) }
    }

    /// `id` followed by its pre-order descendants.
    pub fn descendants_and_self(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(id).chain(self.descendants(id))
    }

    /// Next node in document order after `id`'s whole subtree.
    pub fn next_skipping_subtree(&self, id: NodeId) -> Option<NodeId> {
        let mut cur = id;
        loop {
            if let Some(sib) = self.next_sibling(cur) {
                return Some(sib);
            }
            cur = self.parent(cur)?;
        }
    }

    /// Next node in document order (pre-order successor).
    pub fn next_in_doc(&self, id: NodeId) -> Option<NodeId> {
        if let Some(c) = self.first_child(id) {
            return Some(c);
        }
        self.next_skipping_subtree(id)
    }

    /// Previous node in document order (pre-order predecessor).
    pub fn prev_in_doc(&self, id: NodeId) -> Option<NodeId> {
        match self.prev_sibling(id) {
            Some(mut cur) => {
                while let Some(last) = self.last_child(cur) {
                    cur = last;
                }
                Some(cur)
            }
            None => self.parent(id),
        }
    }

    /// Nodes strictly after `id` in document order, excluding descendants
    /// (the XPath `following` axis).
    pub fn following(&self, id: NodeId) -> Following<'_> {
        Following { doc: self, cur: self.next_skipping_subtree(id) }
    }

    /// Nodes strictly before `id` in document order, excluding ancestors
    /// (the XPath `preceding` axis), nearest first (reverse document order).
    pub fn preceding(&self, id: NodeId) -> Preceding<'_> {
        Preceding { doc: self, target: id, cur: self.prev_in_doc(id) }
    }

    /// Path of child indices from the root; lexicographic comparison of
    /// these keys yields document order.
    pub fn doc_order_key(&self, id: NodeId) -> Vec<u32> {
        let mut key = Vec::new();
        let mut cur = id;
        while let Some(parent) = self.parent(cur) {
            let mut idx = 0u32;
            let mut sib = self.prev_sibling(cur);
            while let Some(s) = sib {
                idx += 1;
                sib = self.prev_sibling(s);
            }
            key.push(idx);
            cur = parent;
        }
        key.reverse();
        key
    }

    /// Compare two attached nodes by document order.
    pub fn compare_order(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.doc_order_key(a).cmp(&self.doc_order_key(b))
    }

    /// Sort a node list into document order and remove duplicates.
    pub fn sort_document_order(&self, nodes: &mut Vec<NodeId>) {
        let mut keyed: Vec<(Vec<u32>, NodeId)> =
            nodes.iter().map(|&n| (self.doc_order_key(n), n)).collect();
        keyed.sort();
        keyed.dedup_by(|a, b| a.1 == b.1);
        nodes.clear();
        nodes.extend(keyed.into_iter().map(|(_, n)| n));
    }

    /// All elements with the given (case-insensitive) tag name, in document
    /// order.
    pub fn elements_by_tag(&self, name: &str) -> Vec<NodeId> {
        let Some(atom) = self.atom(name) else { return Vec::new() };
        self.descendants(Self::ROOT)
            .filter(|&n| self.element_data(n).is_some_and(|el| el.name == atom))
            .collect()
    }

    /// The `<html>` element, if present.
    pub fn html_element(&self) -> Option<NodeId> {
        self.children(Self::ROOT).find(|&c| self.tag_name(c) == Some("html"))
    }

    /// The `<body>` element, if present.
    pub fn body(&self) -> Option<NodeId> {
        let html = self.html_element()?;
        self.children(html).find(|&c| self.tag_name(c) == Some("body"))
    }

    /// The `<head>` element, if present.
    pub fn head(&self) -> Option<NodeId> {
        let html = self.html_element()?;
        self.children(html).find(|&c| self.tag_name(c) == Some("head"))
    }

    /// Number of nodes reachable from the root (excludes detached slots).
    pub fn attached_count(&self) -> usize {
        self.descendants_and_self(Self::ROOT).count()
    }
}

pub struct Children<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.next_sibling(id);
        Some(id)
    }
}

pub struct Ancestors<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.parent(id);
        Some(id)
    }
}

pub struct Descendants<'d> {
    doc: &'d Document,
    root: NodeId,
    cur: Option<NodeId>,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        // Advance: first child, else next sibling, else climb (stopping at root).
        self.cur = if let Some(c) = self.doc.first_child(id) {
            Some(c)
        } else {
            let mut cur = id;
            loop {
                if cur == self.root {
                    break None;
                }
                if let Some(sib) = self.doc.next_sibling(cur) {
                    break Some(sib);
                }
                match self.doc.parent(cur) {
                    Some(p) if p != self.root => cur = p,
                    _ => break None,
                }
            }
        };
        Some(id)
    }
}

pub struct Following<'d> {
    doc: &'d Document,
    cur: Option<NodeId>,
}

impl Iterator for Following<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.cur?;
        self.cur = self.doc.next_in_doc(id);
        Some(id)
    }
}

pub struct Preceding<'d> {
    doc: &'d Document,
    target: NodeId,
    cur: Option<NodeId>,
}

impl Iterator for Preceding<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        // Skip ancestors of the target (preceding axis excludes them).
        while let Some(id) = self.cur {
            self.cur = self.doc.prev_in_doc(id);
            if !self.doc.is_ancestor_of(id, self.target) {
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// div > (p > "a"), (span > "b"), "c"
    fn sample() -> (Document, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut d = Document::new();
        let div = d.create_element("div");
        let p = d.create_element("p");
        let ta = d.create_text("a");
        let span = d.create_element("span");
        let tb = d.create_text("b");
        let tc = d.create_text("c");
        d.append_child(Document::ROOT, div);
        d.append_child(div, p);
        d.append_child(p, ta);
        d.append_child(div, span);
        d.append_child(span, tb);
        d.append_child(div, tc);
        (d, div, p, ta, span, tb, tc)
    }

    #[test]
    fn links_after_append() {
        let (d, div, p, _ta, span, _tb, tc) = sample();
        assert_eq!(d.first_child(div), Some(p));
        assert_eq!(d.last_child(div), Some(tc));
        assert_eq!(d.next_sibling(p), Some(span));
        assert_eq!(d.prev_sibling(span), Some(p));
        assert_eq!(d.parent(span), Some(div));
    }

    #[test]
    fn descendants_preorder() {
        let (d, div, p, ta, span, tb, tc) = sample();
        let order: Vec<NodeId> = d.descendants(Document::ROOT).collect();
        assert_eq!(order, vec![div, p, ta, span, tb, tc]);
        let sub: Vec<NodeId> = d.descendants(span).collect();
        assert_eq!(sub, vec![tb]);
    }

    #[test]
    fn detach_relinks_siblings() {
        let (mut d, div, p, _ta, span, _tb, tc) = sample();
        d.detach(span);
        assert_eq!(d.next_sibling(p), Some(tc));
        assert_eq!(d.prev_sibling(tc), Some(p));
        assert_eq!(d.parent(span), None);
        let order: Vec<NodeId> = d.descendants(div).collect();
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn insert_before_front_and_middle() {
        let (mut d, div, p, _ta, span, _tb, _tc) = sample();
        let new1 = d.create_element("b");
        d.insert_before(div, new1, p);
        assert_eq!(d.first_child(div), Some(new1));
        let new2 = d.create_element("i");
        d.insert_before(div, new2, span);
        assert_eq!(d.prev_sibling(span), Some(new2));
        assert_eq!(d.next_sibling(p), Some(new2));
    }

    #[test]
    fn replace_swaps_nodes() {
        let (mut d, div, p, _ta, _span, _tb, _tc) = sample();
        let new = d.create_element("h1");
        d.replace(p, new);
        assert_eq!(d.first_child(div), Some(new));
        assert_eq!(d.parent(p), None);
    }

    #[test]
    fn text_content_concatenates() {
        let (d, div, ..) = sample();
        assert_eq!(d.text_content(div), "abc");
    }

    #[test]
    fn following_and_preceding_axes() {
        let (d, _div, p, ta, span, tb, tc) = sample();
        let f: Vec<NodeId> = d.following(p).collect();
        assert_eq!(f, vec![span, tb, tc]);
        // preceding of tb: ta, p (ancestors span/div excluded), nearest first.
        let pr: Vec<NodeId> = d.preceding(tb).collect();
        assert_eq!(pr, vec![ta, p]);
    }

    #[test]
    fn doc_order_compare_and_sort() {
        let (d, div, p, ta, span, tb, tc) = sample();
        assert_eq!(d.compare_order(p, span), Ordering::Less);
        assert_eq!(d.compare_order(tc, ta), Ordering::Greater);
        assert_eq!(d.compare_order(div, div), Ordering::Equal);
        let mut v = vec![tc, tb, p, tc, div];
        d.sort_document_order(&mut v);
        assert_eq!(v, vec![div, p, tb, tc]);
    }

    #[test]
    fn attr_access_is_case_insensitive() {
        let mut d = Document::new();
        let a = d.create_element_with_attrs("a", &[("HREF", "x"), ("id", "l")]);
        assert_eq!(d.attr(a, "href"), Some("x"));
        assert_eq!(d.attr(a, "ID"), Some("l"));
        assert_eq!(d.attr(a, "class"), None);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (d, div, p, ta, ..) = sample();
        let anc: Vec<NodeId> = d.ancestors(ta).collect();
        assert_eq!(anc, vec![p, div, Document::ROOT]);
    }

    #[test]
    fn is_ancestor_of() {
        let (d, div, p, ta, span, ..) = sample();
        assert!(d.is_ancestor_of(div, ta));
        assert!(d.is_ancestor_of(p, ta));
        assert!(!d.is_ancestor_of(span, ta));
        assert!(!d.is_ancestor_of(ta, ta));
    }

    #[test]
    fn nodes_stay_small() {
        // Five `u32` links and a 16-byte payload: the arena the XPath
        // executor walks holds about 1.5x more nodes per cache line than
        // with `Option<NodeId>` links.
        assert!(std::mem::size_of::<Node>() <= 40, "{}", std::mem::size_of::<Node>());
    }

    #[test]
    fn append_child_moves_an_attached_node() {
        let (mut d, div, p, _ta, span, _tb, tc) = sample();
        d.append_child(span, p);
        assert_eq!(d.first_child(div), Some(span));
        assert_eq!(d.prev_sibling(span), None);
        assert_eq!(d.next_sibling(span), Some(tc));
        assert_eq!(d.last_child(span), Some(p));
        assert_eq!(d.parent(p), Some(span));
        assert_eq!(d.text_content(div), "bac");
    }

    #[test]
    #[should_panic]
    fn append_to_self_panics() {
        let mut d = Document::new();
        let x = d.create_element("div");
        d.append_child(x, x);
    }
}
