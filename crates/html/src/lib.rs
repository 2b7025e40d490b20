//! # retroweb-html — the DOM substrate
//!
//! An error-tolerant HTML parser and mutable arena DOM, standing in for the
//! Mozilla/Gecko platform the original Retrozilla prototype was built on
//! (§5 of the paper: "Mozilla provides an internal DOM representation of
//! loaded HTML documents, whatever their syntactical quality").
//!
//! The crate provides:
//! - [`Document`]: an arena DOM with stable [`NodeId`]s, full mutation
//!   (append / insert-before / detach / replace) and the traversal axes
//!   XPath needs (children, descendants, ancestors, following, preceding,
//!   document-order comparison);
//! - [`parse`]: tokenizer + tree builder with the practical error-recovery
//!   behaviours of 2000s-era browsers (implied end tags, void elements,
//!   head/body synthesis, raw-text elements);
//! - serialisation back to HTML ([`Document::to_html`]).
//!
//! ## Memory layout
//!
//! A parsed document is a handful of buffers, whatever its size, rather
//! than a few heap objects per node:
//!
//! - **Nodes**: one `Vec` of 36-byte [`Node`]s, indexed by [`NodeId`]:
//!   five `u32` tree links (parent, siblings, first and last child) and a
//!   16-byte [`NodeData`] tag and handle.
//! - **Names**: element and attribute names are interned atoms, resolved
//!   by the tokenizer while it scans each name. Names of HTML elements and
//!   common attributes index one static table, hashed at compile time and
//!   matched in any case without a lowercase copy; any other name goes
//!   once into the document's own overflow table. Every stored name is
//!   lowercase.
//! - **Strings**: text, comment and doctype payloads and attribute values
//!   are `u32` byte ranges ([`Span`]s) into one `String` per document.
//!   Character references are decoded on the way in.
//! - **Attributes**: one document-level `Vec` of `(name atom, value span)`
//!   slots; each element owns one contiguous run of it, in source order.
//!
//! Parsing is one pass. The tokenizer scans the input once, driven by a
//! byte-class table (texts and quoted values eight bytes at a time), and
//! hands each token straight to the tree builder, borrowing it from the
//! input; there is no public token iterator. Each text and attribute value
//! is copied once into the string buffer (one holding a character
//! reference is decoded into a reused scratch buffer first). While
//! parsing, both arenas only grow at the end, in document order: the tree
//! builder appends each new node without unlinking it first, merges
//! adjacent text by extending the last range in place, and holds the
//! attributes of repeated `<html>`, `<head>` and `<body>` tags aside until
//! the end, when it gives them to those elements.
//! Dropping a document frees its few buffers and nothing else.
//!
//! **Mutation appends.** [`Document::set_text`], [`ElementMut::set_attr`] and
//! the `create_*` constructors append to the string buffer (and, for a new
//! attribute, to the attribute arena, moving the element's run to its end
//! first when it is not already there). The bytes and slots they replace
//! are not reused: they are garbage that stays allocated until the
//! document drops. Detached nodes likewise keep their arena slots. A
//! document that is edited heavily and kept for a long time grows; build a
//! fresh one (for instance by re-parsing [`Document::to_html`]) to compact
//! it.
//!
//! ```
//! use retroweb_html::{parse, Document};
//!
//! let doc = parse("<table><tr><td>108 min<td>USA</table>");
//! let cells = doc.elements_by_tag("td");
//! assert_eq!(cells.len(), 2);
//! assert_eq!(doc.text_content(cells[0]), "108 min");
//! ```

#![forbid(unsafe_code)]

mod atom;
mod dom;
mod entities;
mod serialize;
mod tokenizer;
mod tree;

pub use atom::is_void;
pub use dom::{
    Attr, AttrIter, Attrs, Children, Document, Element, ElementData, ElementMut, Node, NodeData,
    NodeId, Span,
};
pub use entities::{decode_entities, escape_attr, escape_text};
pub use tree::parse;
