//! Interned element and attribute names.
//!
//! Every name a [`crate::Document`] stores is an [`Atom`]: an index into
//! one static table of the HTML element and attribute names real pages
//! use, or, past its end, into the document's own overflow table for
//! names the static table lacks (custom elements, `data-*` attributes).
//! Names are lowercase. The static table is hashed at compile time on a
//! name's length and its first eight bytes, lowercased into one `u64`, so
//! finding a known name in any case costs one multiplication and, most
//! often, one slot read comparing that `u64` and the length (plus the
//! bytes past the eighth, for longer names), and never a lowercase copy.
//! The tree builder dispatches on atom constants and per-atom flags
//! instead of comparing strings.

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

const SLOT_BITS: u32 = 9;
const SLOTS: usize = 1 << SLOT_BITS;

/// The first eight bytes of `name`, ASCII-lowercased, as a little-endian
/// `u64` padded with zeros. Most names are that short, so comparing keys
/// and lengths compares them whole. Read with at most two loads, however
/// long the name: a short one's bytes are covered by two overlapping
/// reads, whose shared bytes agree.
const fn prefix_key(name: &[u8]) -> u64 {
    const fn load4(b: &[u8], at: usize) -> u64 {
        u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]) as u64
    }
    let n = name.len();
    let raw = if n >= 8 {
        load4(name, 0) | load4(name, 4) << 32
    } else if n >= 4 {
        load4(name, 0) | load4(name, n - 4) << (8 * (n - 4))
    } else if n > 0 {
        name[0] as u64
            | (name[n / 2] as u64) << (8 * (n / 2))
            | (name[n - 1] as u64) << (8 * (n - 1))
    } else {
        0
    };
    ascii_lowercase(raw)
}

/// Each byte of `x` ASCII-lowercased, all at once: bit 7 of `upper` is set
/// in the bytes from `A` to `Z`, and shifted down it is their case bit.
const fn ascii_lowercase(x: u64) -> u64 {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    let h = x & LOW7;
    let upper = (h + 0x3f3f_3f3f_3f3f_3f3f) & !(h + 0x2525_2525_2525_2525) & !x & !LOW7;
    x | upper >> 2
}

/// Static-table slot of a name of length `len` with prefix key `key`.
const fn slot_of(key: u64, len: usize) -> usize {
    (key.wrapping_add(len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOT_BITS)) as usize
}

/// A slot of [`INDEX`]: a static name's [`prefix_key`] and length, and
/// its atom, so that a probe reads one slot and nothing else for a name
/// of up to eight bytes.
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    len: u32,
    atom: u32,
}

/// An empty slot; no name has its length.
const EMPTY: Slot = Slot { key: 0, len: u32::MAX, atom: u32::MAX };

/// Open-addressing index over [`NAMES`], built at compile time.
static INDEX: [Slot; SLOTS] = {
    let mut table = [EMPTY; SLOTS];
    let mut i = 0;
    while i < NAMES.len() {
        let name = NAMES[i].as_bytes();
        let key = prefix_key(name);
        let mut slot = slot_of(key, name.len());
        while table[slot].atom != EMPTY.atom {
            slot = (slot + 1) % SLOTS;
        }
        table[slot] = Slot { key, len: name.len() as u32, atom: i as u32 };
        i += 1;
    }
    table
};

/// A name to resolve, in any case, with its [`prefix_key`] and whether
/// it has uppercase letters.
#[derive(Clone, Copy)]
pub(crate) struct Name<'a> {
    text: &'a [u8],
    key: u64,
    upper: bool,
}

impl<'a> Name<'a> {
    pub(crate) fn new(text: &'a str) -> Name<'a> {
        Name { text: text.as_bytes(), key: prefix_key(text.as_bytes()), upper: has_upper(text) }
    }

    /// The first `len` bytes of `rest`, a name the tokenizer has scanned,
    /// noting in `upper` whether it has uppercase letters. It ends at an
    /// ASCII byte or at the end of the input, so it is UTF-8. While eight
    /// bytes of `rest` are left, its key takes one load and a mask.
    #[inline]
    pub(crate) fn scanned(rest: &'a [u8], len: usize, upper: bool) -> Name<'a> {
        let text = &rest[..len];
        let key = match rest.first_chunk::<8>() {
            Some(eight) if len > 0 => {
                let mask = u64::MAX >> (64 - 8 * len.min(8));
                ascii_lowercase(u64::from_le_bytes(*eight) & mask)
            }
            _ => prefix_key(text),
        };
        Name { text, key, upper }
    }

    /// The name, lowercase.
    fn lowercase(self) -> Cow<'a, str> {
        let text = std::str::from_utf8(self.text).expect("a scanned name ends on a char boundary");
        lowercase(text, self.upper)
    }
}

/// The static atom for `name`.
#[inline]
fn lookup_static(name: Name<'_>) -> Option<Atom> {
    let (key, name) = (name.key, name.text);
    let mut slot = slot_of(key, name.len());
    loop {
        let entry = INDEX[slot];
        // Table names are lowercase ASCII letters, digits and `-`, so a
        // case-insensitive match means `name` is a case variant.
        if entry.key == key
            && entry.len as usize == name.len()
            && (name.len() <= 8
                || NAMES[entry.atom as usize].as_bytes()[8..].eq_ignore_ascii_case(&name[8..]))
        {
            return Some(Atom(entry.atom));
        }
        if entry.atom == EMPTY.atom {
            return None;
        }
        slot = (slot + 1) % SLOTS;
    }
}

/// `raw` lowercased, borrowed unless `upper` says it has uppercase
/// letters.
pub(crate) fn lowercase(raw: &str, upper: bool) -> Cow<'_, str> {
    if upper {
        Cow::Owned(raw.to_ascii_lowercase())
    } else {
        Cow::Borrowed(raw)
    }
}

fn has_upper(name: &str) -> bool {
    name.bytes().any(|b| b.is_ascii_uppercase())
}

/// Elements that never have children or end tags (`tag` in any case).
pub fn is_void(tag: &str) -> bool {
    lookup_static(Name::new(tag)).is_some_and(Atom::is_void)
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
        self.find(Name::new(name))
    }

    /// The atom for `name`, in any case, interning it if new.
    pub(crate) fn intern(&mut self, name: &str) -> Atom {
        self.resolve(Name::new(name))
    }

    /// [`get`](Self::get) for a [`Name`] the tokenizer has scanned. Only a
    /// name outside the static table that has uppercase letters is
    /// lowercased, to look it up.
    pub(crate) fn find(&self, name: Name<'_>) -> Option<Atom> {
        lookup_static(name).or_else(|| self.index.get(&*name.lowercase()).copied())
    }

    /// [`intern`](Self::intern) for a [`Name`] the tokenizer has scanned.
    pub(crate) fn resolve(&mut self, name: Name<'_>) -> Atom {
        if let Some(atom) = self.find(name) {
            return atom;
        }
        let index = u32::try_from(STATIC_LEN + self.extra.len()).expect("fewer than 2^32 names");
        let atom = Atom(index);
        let boxed: Box<str> = name.lowercase().into();
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
            assert_eq!(lookup_static(Name::new(name)), Some(Atom(i as u32)), "{name}");
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
    fn static_names_resolve_in_any_case() {
        assert_eq!(lookup_static(Name::new("TABLE")), Some(TABLE));
        assert_eq!(lookup_static(Name::new("Http-Equiv")), Some(HTTP_EQUIV));
        assert_eq!(lookup_static(Name::new("tablex")), None);
        assert_eq!(lookup_static(Name::new("tabl")), None);
        assert_eq!(lookup_static(Name::new("")), None);
        // A byte that folds onto a letter is still no match.
        assert_eq!(lookup_static(Name::new("\x01")), None);
        assert_eq!(lookup_static(Name::new("h\x11")), None);
    }

    #[test]
    fn prefix_keys_lowercase_the_first_eight_bytes() {
        let bytewise = |name: &[u8]| -> u64 {
            name.iter()
                .take(8)
                .enumerate()
                .map(|(i, b)| u64::from(b.to_ascii_lowercase()) << (8 * i))
                .sum()
        };
        let odd: &[&[u8]] = &[b"", b"@[`{", b"\xc3\x89T\xc3\xa9", b"Z\0\x7f\x80\xff", b"a-B_c:D9"];
        let upper: Vec<String> = NAMES.iter().map(|n| n.to_ascii_uppercase()).collect();
        let names = NAMES.iter().map(|n| n.as_bytes()).chain(upper.iter().map(|n| n.as_bytes()));
        for name in names.chain(odd.iter().copied()) {
            assert_eq!(prefix_key(name), bytewise(name), "{name:?}");
        }
        let input = "Td CLASS=x tabLe";
        for (at, len) in [(0, 2), (3, 5), (11, 5), (13, 3)] {
            let name = Name::scanned(&input.as_bytes()[at..], len, true);
            assert_eq!(name.key, prefix_key(&input.as_bytes()[at..at + len]), "{at}+{len}");
            assert_eq!(name.text, &input.as_bytes()[at..at + len]);
        }
        for b in 0..=255u8 {
            assert_eq!(
                ascii_lowercase(u64::from(b) << 24),
                u64::from(b.to_ascii_lowercase()) << 24
            );
        }
    }

    #[test]
    fn static_lookups_probe_few_slots() {
        let (mut longest, mut total) = (0, 0);
        for name in NAMES {
            let home = slot_of(prefix_key(name.as_bytes()), name.len());
            let at = (0..SLOTS).find(|&d| {
                let entry = INDEX[(home + d) % SLOTS];
                entry.atom != EMPTY.atom && NAMES[entry.atom as usize] == *name
            });
            let at = at.expect("every name is indexed");
            longest = longest.max(at);
            total += at;
        }
        assert!(longest <= 8, "a static name sits {longest} slots past its home");
        assert!(total * 2 < NAMES.len(), "{total} probes past home over {} names", NAMES.len());
    }

    #[test]
    fn lowercase_borrows_unless_uppercase() {
        assert!(matches!(lowercase("table", false), Cow::Borrowed("table")));
        assert!(matches!(lowercase("x-widget", false), Cow::Borrowed("x-widget")));
        assert!(matches!(lowercase("TABLE", true), Cow::Owned(s) if s == "table"));
        assert!(matches!(lowercase("x-Widget", true), Cow::Owned(s) if s == "x-widget"));
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
