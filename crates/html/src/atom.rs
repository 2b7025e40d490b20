//! Interned element and attribute names.
//!
//! Every name a [`crate::Document`] stores is an [`Atom`]: an index into
//! one static table of the HTML element and attribute names real pages
//! use, or, past its end, into the document's own overflow table for
//! names the static table lacks (custom elements, `data-*` attributes).
//! Names are lowercase. The static table is hashed at compile time, so
//! interning a known name costs one FNV hash and one comparison, and the
//! tree builder dispatches on atom constants and per-atom flags instead
//! of comparing strings.

use std::borrow::Cow;
use std::collections::HashMap;

/// An interned lowercase name. Atoms below [`STATIC_LEN`] are the same in
/// every document; the rest are only meaningful for the document that
/// interned them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Atom(u32);

impl Atom {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    fn flags(self) -> u8 {
        FLAGS.get(self.index()).copied().unwrap_or(0)
    }

    /// Elements that never have children or end tags.
    pub(crate) fn is_void(self) -> bool {
        self.flags() & VOID != 0
    }

    /// Elements whose start tag implicitly closes an open `<p>`.
    pub(crate) fn closes_p(self) -> bool {
        self.flags() & CLOSES_P != 0
    }

    /// Elements that belong in `<head>` when seen before any body content.
    pub(crate) fn is_head_element(self) -> bool {
        self.flags() & IN_HEAD != 0
    }
}

const VOID: u8 = 1;
const CLOSES_P: u8 = 2;
const IN_HEAD: u8 = 4;

macro_rules! atoms {
    ($($konst:ident = $name:literal $(: $($flag:ident)|+)?,)*) => {
        #[allow(clippy::upper_case_acronyms, non_camel_case_types, dead_code)]
        #[repr(u32)]
        enum Index { $($konst),* }

        /// The static names, lowercase, in atom order.
        const NAMES: &[&str] = &[$($name),*];

        const FLAGS: &[u8] = &[$(0 $($(| $flag)+)?),*];

        /// Atoms of the static table, named after their (uppercased) name.
        #[allow(dead_code)]
        pub(crate) mod names {
            use super::{Atom, Index};
            $(pub(crate) const $konst: Atom = Atom(Index::$konst as u32);)*
        }
    };
}

atoms! {
    // Elements.
    A = "a",
    ABBR = "abbr",
    ACRONYM = "acronym",
    ADDRESS = "address": CLOSES_P,
    APPLET = "applet",
    AREA = "area": VOID,
    ARTICLE = "article": CLOSES_P,
    ASIDE = "aside": CLOSES_P,
    AUDIO = "audio",
    B = "b",
    BASE = "base": VOID | IN_HEAD,
    BASEFONT = "basefont",
    BDI = "bdi",
    BDO = "bdo",
    BIG = "big",
    BLINK = "blink",
    BLOCKQUOTE = "blockquote": CLOSES_P,
    BODY = "body",
    BR = "br": VOID,
    BUTTON = "button",
    CANVAS = "canvas",
    CAPTION = "caption",
    CENTER = "center": CLOSES_P,
    CITE = "cite",
    CODE = "code",
    COL = "col": VOID,
    COLGROUP = "colgroup",
    DATA = "data",
    DATALIST = "datalist",
    DD = "dd",
    DEL = "del",
    DETAILS = "details",
    DFN = "dfn",
    DIALOG = "dialog",
    DIR = "dir": CLOSES_P,
    DIV = "div": CLOSES_P,
    DL = "dl": CLOSES_P,
    DT = "dt",
    EM = "em",
    EMBED = "embed": VOID,
    FIELDSET = "fieldset": CLOSES_P,
    FIGCAPTION = "figcaption",
    FIGURE = "figure",
    FONT = "font",
    FOOTER = "footer": CLOSES_P,
    FORM = "form": CLOSES_P,
    FRAME = "frame",
    FRAMESET = "frameset",
    H1 = "h1": CLOSES_P,
    H2 = "h2": CLOSES_P,
    H3 = "h3": CLOSES_P,
    H4 = "h4": CLOSES_P,
    H5 = "h5": CLOSES_P,
    H6 = "h6": CLOSES_P,
    HEAD = "head",
    HEADER = "header": CLOSES_P,
    HGROUP = "hgroup",
    HR = "hr": VOID | CLOSES_P,
    HTML = "html",
    I = "i",
    IFRAME = "iframe",
    IMG = "img": VOID,
    INPUT = "input": VOID,
    INS = "ins",
    KBD = "kbd",
    LABEL = "label",
    LEGEND = "legend",
    LI = "li": CLOSES_P,
    LINK = "link": VOID | IN_HEAD,
    MAIN = "main": CLOSES_P,
    MAP = "map",
    MARK = "mark",
    MARQUEE = "marquee",
    MENU = "menu": CLOSES_P,
    META = "meta": VOID | IN_HEAD,
    METER = "meter",
    NAV = "nav": CLOSES_P,
    NOBR = "nobr",
    NOFRAMES = "noframes",
    NOSCRIPT = "noscript",
    OBJECT = "object",
    OL = "ol": CLOSES_P,
    OPTGROUP = "optgroup",
    OPTION = "option",
    OUTPUT = "output",
    P = "p": CLOSES_P,
    PARAM = "param": VOID,
    PICTURE = "picture",
    PRE = "pre": CLOSES_P,
    PROGRESS = "progress",
    Q = "q",
    RP = "rp",
    RT = "rt",
    RUBY = "ruby",
    S = "s",
    SAMP = "samp",
    SCRIPT = "script": IN_HEAD,
    SECTION = "section": CLOSES_P,
    SELECT = "select",
    SMALL = "small",
    SOURCE = "source": VOID,
    SPAN = "span",
    STRIKE = "strike",
    STRONG = "strong",
    STYLE = "style": IN_HEAD,
    SUB = "sub",
    SUMMARY = "summary",
    SUP = "sup",
    SVG = "svg",
    TABLE = "table": CLOSES_P,
    TBODY = "tbody",
    TD = "td",
    TEMPLATE = "template",
    TEXTAREA = "textarea",
    TFOOT = "tfoot",
    TH = "th",
    THEAD = "thead",
    TIME = "time",
    TITLE = "title": IN_HEAD,
    TR = "tr",
    TRACK = "track": VOID,
    TT = "tt",
    U = "u",
    UL = "ul": CLOSES_P,
    VAR = "var",
    VIDEO = "video",
    WBR = "wbr": VOID,
    XMP = "xmp",
    // Attributes (names shared with an element above are not repeated).
    ACCEPT = "accept",
    ACCESSKEY = "accesskey",
    ACTION = "action",
    ALIGN = "align",
    ALINK = "alink",
    ALT = "alt",
    ARIA_HIDDEN = "aria-hidden",
    ARIA_LABEL = "aria-label",
    ASYNC = "async",
    AUTOCOMPLETE = "autocomplete",
    BACKGROUND = "background",
    BGCOLOR = "bgcolor",
    BORDER = "border",
    CELLPADDING = "cellpadding",
    CELLSPACING = "cellspacing",
    CHARSET = "charset",
    CHECKED = "checked",
    CLASS = "class",
    CLEAR = "clear",
    COLOR = "color",
    COLS = "cols",
    COLSPAN = "colspan",
    CONTENT = "content",
    COORDS = "coords",
    DATETIME = "datetime",
    DEFER = "defer",
    DISABLED = "disabled",
    ENCTYPE = "enctype",
    FACE = "face",
    FOR = "for",
    FRAMEBORDER = "frameborder",
    HEADERS = "headers",
    HEIGHT = "height",
    HIDDEN = "hidden",
    HREF = "href",
    HSPACE = "hspace",
    HTTP_EQUIV = "http-equiv",
    ID = "id",
    ITEMPROP = "itemprop",
    ITEMSCOPE = "itemscope",
    ITEMTYPE = "itemtype",
    LANG = "lang",
    LANGUAGE = "language",
    LOADING = "loading",
    MAXLENGTH = "maxlength",
    MEDIA = "media",
    METHOD = "method",
    MULTIPLE = "multiple",
    NAME = "name",
    NOWRAP = "nowrap",
    ONCLICK = "onclick",
    ONLOAD = "onload",
    ONMOUSEOUT = "onmouseout",
    ONMOUSEOVER = "onmouseover",
    ONSUBMIT = "onsubmit",
    PLACEHOLDER = "placeholder",
    PROPERTY = "property",
    READONLY = "readonly",
    REL = "rel",
    ROLE = "role",
    ROWS = "rows",
    ROWSPAN = "rowspan",
    SCOPE = "scope",
    SELECTED = "selected",
    SIZE = "size",
    SRC = "src",
    SRCSET = "srcset",
    TABINDEX = "tabindex",
    TARGET = "target",
    TEXT = "text",
    TYPE = "type",
    USEMAP = "usemap",
    VALIGN = "valign",
    VALUE = "value",
    VSPACE = "vspace",
    WIDTH = "width",
    XMLNS = "xmlns",
}

/// Number of static atoms.
pub(crate) const STATIC_LEN: usize = NAMES.len();

const SLOTS: usize = 1024;
const EMPTY: u16 = u16::MAX;

const fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    let mut i = 0;
    while i < bytes.len() {
        h = (h ^ bytes[i] as u32).wrapping_mul(0x0100_0193);
        i += 1;
    }
    h
}

/// Open-addressing index over [`NAMES`], built at compile time.
const INDEX: [u16; SLOTS] = {
    let mut table = [EMPTY; SLOTS];
    let mut i = 0;
    while i < NAMES.len() {
        let mut slot = fnv1a(NAMES[i].as_bytes()) as usize % SLOTS;
        while table[slot] != EMPTY {
            slot = (slot + 1) % SLOTS;
        }
        table[slot] = i as u16;
        i += 1;
    }
    table
};

/// The static atom for a lowercase name.
fn lookup_static(name: &str) -> Option<Atom> {
    let mut slot = fnv1a(name.as_bytes()) as usize % SLOTS;
    loop {
        let i = INDEX[slot];
        if i == EMPTY {
            return None;
        }
        if NAMES[i as usize] == name {
            return Some(Atom(i as u32));
        }
        slot = (slot + 1) % SLOTS;
    }
}

/// `raw` lowercased, borrowed unless it has uppercase letters.
pub(crate) fn lowercase(raw: &str) -> Cow<'_, str> {
    if raw.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(raw.to_ascii_lowercase())
    } else {
        Cow::Borrowed(raw)
    }
}

/// Elements that never have children or end tags (`tag` lowercase).
pub fn is_void(tag: &str) -> bool {
    lookup_static(tag).is_some_and(Atom::is_void)
}

/// A document's name table: the static atoms plus the names only this
/// document uses.
#[derive(Clone, Debug, Default)]
pub(crate) struct Names {
    extra: Vec<Box<str>>,
    index: HashMap<Box<str>, Atom>,
}

impl Names {
    /// The atom for `name`, in any case, without interning it.
    pub(crate) fn get(&self, name: &str) -> Option<Atom> {
        let lower = lowercase(name);
        lookup_static(&lower).or_else(|| self.index.get(&*lower).copied())
    }

    /// The atom for `name`, in any case, interning it if new.
    pub(crate) fn intern(&mut self, name: &str) -> Atom {
        if let Some(atom) = self.get(name) {
            return atom;
        }
        let index = u32::try_from(STATIC_LEN + self.extra.len()).expect("fewer than 2^32 names");
        let atom = Atom(index);
        let boxed: Box<str> = lowercase(name).into();
        self.extra.push(boxed.clone());
        self.index.insert(boxed, atom);
        atom
    }

    pub(crate) fn name(&self, atom: Atom) -> &str {
        match NAMES.get(atom.index()) {
            Some(name) => name,
            None => &self.extra[atom.index() - STATIC_LEN],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::names::*;
    use super::*;

    #[test]
    fn static_names_are_unique_lowercase_and_indexed() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(name.to_ascii_lowercase(), *name);
            assert_eq!(lookup_static(name), Some(Atom(i as u32)), "{name}");
        }
        assert_eq!(FLAGS.len(), NAMES.len());
        assert!(NAMES.len() < SLOTS / 2);
    }

    #[test]
    fn constants_name_their_strings() {
        let names = Names::default();
        assert_eq!(names.name(DIV), "div");
        assert_eq!(names.name(HEAD), "head");
        assert_eq!(names.name(HTTP_EQUIV), "http-equiv");
        assert!(BR.is_void() && HR.is_void() && HR.closes_p() && META.is_head_element());
        assert!(!DIV.is_void() && !SPAN.closes_p() && !DIV.is_head_element());
    }

    #[test]
    fn lowercase_borrows_unless_uppercase() {
        assert!(matches!(lowercase("table"), Cow::Borrowed("table")));
        assert!(matches!(lowercase("x-widget"), Cow::Borrowed("x-widget")));
        assert!(matches!(lowercase("TABLE"), Cow::Owned(s) if s == "table"));
        assert!(matches!(lowercase("x-Widget"), Cow::Owned(s) if s == "x-widget"));
    }

    #[test]
    fn overflow_names_intern_once_per_document() {
        let mut names = Names::default();
        let a = names.intern("Data-Role");
        assert_eq!(names.intern("data-role"), a);
        assert_eq!(names.get("DATA-ROLE"), Some(a));
        assert_eq!(names.name(a), "data-role");
        assert!(a.index() >= STATIC_LEN);
        assert_eq!(names.intern("TD"), TD);
        assert_eq!(names.get("never-seen"), None);
    }
}
