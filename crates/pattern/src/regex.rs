//! A small regular-expression engine executed by a Pike-style NFA VM.
//!
//! Supported syntax: literals, escapes (`\d \D \w \W \s \S` and escaped
//! metacharacters), `.`, character classes `[a-z0-9_]` / `[^...]`, groups
//! `(...)`, alternation `|`, repetition `* + ? {m} {m,} {m,n}`, and the
//! anchors `^` / `$`. Matching is unanchored unless anchors are present.

use crate::PatternError;

/// A matched region of the searched text (byte offsets are not exposed;
/// offsets are in characters for simplicity of the path-filter use case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    start: usize,
    end: usize,
}

impl Match {
    /// Character offset of the first matched character.
    #[must_use]
    pub fn start(&self) -> usize {
        self.start
    }

    /// Character offset one past the last matched character.
    #[must_use]
    pub fn end(&self) -> usize {
        self.end
    }

    /// Number of characters matched.
    #[must_use]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the match is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Single-character predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CharPred {
    Any,
    Lit(char),
    Class {
        negated: bool,
        ranges: Vec<(char, char)>,
    },
}

impl CharPred {
    fn matches(&self, c: char) -> bool {
        match self {
            CharPred::Any => true,
            CharPred::Lit(l) => *l == c,
            CharPred::Class { negated, ranges } => {
                let inside = ranges.iter().any(|&(lo, hi)| lo <= c && c <= hi);
                inside != *negated
            }
        }
    }
}

/// Parsed regex AST.
#[derive(Debug, Clone)]
enum Ast {
    Empty,
    Char(CharPred),
    Concat(Vec<Ast>),
    Alt(Vec<Ast>),
    Repeat {
        node: Box<Ast>,
        min: u32,
        max: Option<u32>,
    },
    AnchorStart,
    AnchorEnd,
}

/// Compiled NFA instruction.
#[derive(Debug, Clone)]
enum Inst {
    Char(CharPred),
    Split(usize, usize),
    Jmp(usize),
    AnchorStart,
    AnchorEnd,
    Match,
}

/// A compiled regular expression.
///
/// ```
/// use iocov_pattern::Regex;
///
/// # fn main() -> Result<(), iocov_pattern::PatternError> {
/// let re = Regex::new(r"^sys_(open|openat2?|creat)$")?;
/// assert!(re.is_match("sys_openat2"));
/// assert!(!re.is_match("sys_read"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    source: String,
    prog: Vec<Inst>,
}

impl Regex {
    /// Compiles a regular expression.
    ///
    /// # Errors
    ///
    /// Returns [`PatternError`] on syntax errors: unbalanced parentheses,
    /// unclosed classes, dangling repetition operators, reversed `{m,n}`
    /// bounds, or trailing escapes.
    pub fn new(pattern: &str) -> Result<Self, PatternError> {
        let mut parser = Parser {
            pattern,
            chars: pattern.chars().collect(),
            pos: 0,
        };
        let ast = parser.parse_alt()?;
        if parser.pos != parser.chars.len() {
            return Err(PatternError::new(
                pattern,
                parser.pos,
                "unbalanced closing parenthesis",
            ));
        }
        let mut prog = Vec::new();
        compile(&ast, &mut prog);
        prog.push(Inst::Match);
        Ok(Regex {
            source: pattern.to_owned(),
            prog,
        })
    }

    /// Returns the original regex source text.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Tests whether the regex matches anywhere in `text`.
    #[must_use]
    pub fn is_match(&self, text: &str) -> bool {
        self.find(text).is_some()
    }

    /// Finds the leftmost match, preferring the longest match at that
    /// position, and returns its character offsets.
    ///
    /// A program that begins with `^` can only match at offset 0, so it
    /// runs once; otherwise every start offset is tried in turn. The VM's
    /// thread lists are allocated once per call and reused across starts.
    #[must_use]
    pub fn find(&self, text: &str) -> Option<Match> {
        let chars: Vec<char> = text.chars().collect();
        let last_start = if matches!(self.prog.first(), Some(Inst::AnchorStart)) {
            0
        } else {
            chars.len()
        };
        let mut vm = Vm::new(self.prog.len());
        (0..=last_start).find_map(|start| {
            vm.run_from(&self.prog, &chars, start)
                .map(|end| Match { start, end })
        })
    }
}

/// The Pike VM's thread lists, reused across start positions.
struct Vm {
    current: Vec<usize>,
    next: Vec<usize>,
    on_current: Vec<bool>,
    on_next: Vec<bool>,
}

impl Vm {
    fn new(n: usize) -> Self {
        Vm {
            current: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            on_current: vec![false; n],
            on_next: vec![false; n],
        }
    }

    /// Runs the NFA anchored at `start`; returns the longest match end.
    fn run_from(&mut self, prog: &[Inst], chars: &[char], start: usize) -> Option<usize> {
        let Vm {
            current,
            next,
            on_current,
            on_next,
        } = self;
        current.clear();
        on_current.fill(false);
        let mut best: Option<usize> = None;

        add_thread(prog, 0, start, chars.len(), current, on_current);
        let mut pos = start;
        loop {
            // Record any accepting thread at the current position.
            if current.iter().any(|&pc| matches!(prog[pc], Inst::Match)) {
                best = Some(pos);
            }
            if pos >= chars.len() || current.is_empty() {
                break;
            }
            let c = chars[pos];
            next.clear();
            on_next.fill(false);
            for &pc in current.iter() {
                if let Inst::Char(pred) = &prog[pc] {
                    if pred.matches(c) {
                        add_thread(prog, pc + 1, pos + 1, chars.len(), next, on_next);
                    }
                }
            }
            std::mem::swap(current, next);
            std::mem::swap(on_current, on_next);
            pos += 1;
        }
        best
    }
}

impl std::fmt::Display for Regex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.source)
    }
}

/// Adds `pc` and its epsilon closure to the thread list.
fn add_thread(
    prog: &[Inst],
    pc: usize,
    pos: usize,
    len: usize,
    list: &mut Vec<usize>,
    on_list: &mut [bool],
) {
    if on_list[pc] {
        return;
    }
    on_list[pc] = true;
    match &prog[pc] {
        Inst::Jmp(t) => add_thread(prog, *t, pos, len, list, on_list),
        Inst::Split(a, b) => {
            add_thread(prog, *a, pos, len, list, on_list);
            add_thread(prog, *b, pos, len, list, on_list);
        }
        Inst::AnchorStart => {
            if pos == 0 {
                add_thread(prog, pc + 1, pos, len, list, on_list);
            }
        }
        Inst::AnchorEnd => {
            if pos == len {
                add_thread(prog, pc + 1, pos, len, list, on_list);
            }
        }
        Inst::Char(_) | Inst::Match => list.push(pc),
    }
}

/// Emits NFA code for `ast` into `prog`.
fn compile(ast: &Ast, prog: &mut Vec<Inst>) {
    match ast {
        Ast::Empty => {}
        Ast::Char(p) => prog.push(Inst::Char(p.clone())),
        Ast::AnchorStart => prog.push(Inst::AnchorStart),
        Ast::AnchorEnd => prog.push(Inst::AnchorEnd),
        Ast::Concat(parts) => {
            for p in parts {
                compile(p, prog);
            }
        }
        Ast::Alt(alts) => {
            // Chain of Splits; each branch Jmps to the common exit.
            let mut jmp_fixups = Vec::new();
            for (i, alt) in alts.iter().enumerate() {
                if i + 1 < alts.len() {
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0)); // fixed up below
                    compile(alt, prog);
                    jmp_fixups.push(prog.len());
                    prog.push(Inst::Jmp(0)); // fixed up below
                    let after = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, after);
                } else {
                    compile(alt, prog);
                }
            }
            let end = prog.len();
            for f in jmp_fixups {
                prog[f] = Inst::Jmp(end);
            }
        }
        Ast::Repeat { node, min, max } => {
            for _ in 0..*min {
                compile(node, prog);
            }
            match max {
                None => {
                    // Greedy star loop.
                    let split_at = prog.len();
                    prog.push(Inst::Split(0, 0));
                    compile(node, prog);
                    prog.push(Inst::Jmp(split_at));
                    let after = prog.len();
                    prog[split_at] = Inst::Split(split_at + 1, after);
                }
                Some(max) => {
                    // (max - min) optional copies.
                    let mut fixups = Vec::new();
                    for _ in *min..*max {
                        let split_at = prog.len();
                        prog.push(Inst::Split(0, 0));
                        fixups.push(split_at);
                        compile(node, prog);
                    }
                    let end = prog.len();
                    for f in fixups {
                        prog[f] = Inst::Split(f + 1, end);
                    }
                }
            }
        }
    }
}

/// Recursive-descent regex parser.
struct Parser<'a> {
    pattern: &'a str,
    chars: Vec<char>,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn err(&self, msg: impl Into<String>) -> PatternError {
        PatternError::new(self.pattern, self.pos, msg)
    }

    fn parse_alt(&mut self) -> Result<Ast, PatternError> {
        let mut alts = vec![self.parse_concat()?];
        while self.peek() == Some('|') {
            self.bump();
            alts.push(self.parse_concat()?);
        }
        Ok(if alts.len() == 1 {
            alts.pop().expect("one alternative")
        } else {
            Ast::Alt(alts)
        })
    }

    fn parse_concat(&mut self) -> Result<Ast, PatternError> {
        let mut parts = Vec::new();
        while let Some(c) = self.peek() {
            if c == '|' || c == ')' {
                break;
            }
            parts.push(self.parse_repeat()?);
        }
        Ok(match parts.len() {
            0 => Ast::Empty,
            1 => parts.pop().expect("one part"),
            _ => Ast::Concat(parts),
        })
    }

    fn parse_repeat(&mut self) -> Result<Ast, PatternError> {
        let atom = self.parse_atom()?;
        let Some(op) = self.peek() else {
            return Ok(atom);
        };
        let (min, max) = match op {
            '*' => {
                self.bump();
                (0, None)
            }
            '+' => {
                self.bump();
                (1, None)
            }
            '?' => {
                self.bump();
                (0, Some(1))
            }
            '{' => {
                self.bump();
                let (min, max) = self.parse_bounds()?;
                (min, max)
            }
            _ => return Ok(atom),
        };
        if matches!(atom, Ast::AnchorStart | Ast::AnchorEnd | Ast::Empty) {
            return Err(self.err("repetition operator applied to nothing"));
        }
        Ok(Ast::Repeat {
            node: Box::new(atom),
            min,
            max,
        })
    }

    /// Parses the interior of `{m}`, `{m,}` or `{m,n}` (after the `{`).
    fn parse_bounds(&mut self) -> Result<(u32, Option<u32>), PatternError> {
        let min = self.parse_number()?;
        match self.bump() {
            Some('}') => Ok((min, Some(min))),
            Some(',') => {
                if self.peek() == Some('}') {
                    self.bump();
                    return Ok((min, None));
                }
                let max = self.parse_number()?;
                if self.bump() != Some('}') {
                    return Err(self.err("expected `}` in repetition"));
                }
                if max < min {
                    return Err(self.err("reversed repetition bounds"));
                }
                Ok((min, Some(max)))
            }
            _ => Err(self.err("malformed repetition bounds")),
        }
    }

    fn parse_number(&mut self) -> Result<u32, PatternError> {
        let start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a number in repetition"));
        }
        let digits: String = self.chars[start..self.pos].iter().collect();
        digits
            .parse::<u32>()
            .map_err(|_| self.err("repetition bound too large"))
    }

    fn parse_atom(&mut self) -> Result<Ast, PatternError> {
        match self.peek() {
            None => Ok(Ast::Empty),
            Some('^') => {
                self.bump();
                Ok(Ast::AnchorStart)
            }
            Some('$') => {
                self.bump();
                Ok(Ast::AnchorEnd)
            }
            Some('.') => {
                self.bump();
                Ok(Ast::Char(CharPred::Any))
            }
            Some('(') => {
                self.bump();
                let inner = self.parse_alt()?;
                if self.bump() != Some(')') {
                    return Err(self.err("unbalanced opening parenthesis"));
                }
                Ok(inner)
            }
            Some('[') => self.parse_class(),
            Some('\\') => {
                self.bump();
                let c = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                Ok(Ast::Char(escape_pred(c)))
            }
            Some('*') | Some('+') | Some('?') => {
                Err(self.err("repetition operator applied to nothing"))
            }
            Some(c) => {
                self.bump();
                Ok(Ast::Char(CharPred::Lit(c)))
            }
        }
    }

    fn parse_class(&mut self) -> Result<Ast, PatternError> {
        let open = self.pos;
        self.bump(); // consume '['
        let negated = self.peek() == Some('^');
        if negated {
            self.bump();
        }
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            match self.peek() {
                None => {
                    return Err(PatternError::new(
                        self.pattern,
                        open,
                        "unclosed character class",
                    ));
                }
                Some(']') if !first => {
                    self.bump();
                    return Ok(Ast::Char(CharPred::Class { negated, ranges }));
                }
                Some(c) => {
                    first = false;
                    let lo = if c == '\\' {
                        self.bump();
                        let e = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                        match escape_pred(e) {
                            CharPred::Lit(l) => l,
                            CharPred::Class {
                                ranges: rs,
                                negated: false,
                            } => {
                                // `[\d...]`: splice in the shorthand's ranges.
                                ranges.extend(rs);
                                continue;
                            }
                            _ => return Err(self.err("unsupported escape in class")),
                        }
                    } else {
                        self.bump();
                        c
                    };
                    if self.peek() == Some('-')
                        && self.chars.get(self.pos + 1).is_some_and(|&c| c != ']')
                    {
                        self.bump(); // '-'
                        let hi = self
                            .bump()
                            .ok_or_else(|| self.err("unclosed character class"))?;
                        let hi = if hi == '\\' {
                            let e = self.bump().ok_or_else(|| self.err("trailing escape"))?;
                            match escape_pred(e) {
                                CharPred::Lit(l) => l,
                                _ => return Err(self.err("class shorthand cannot end a range")),
                            }
                        } else {
                            hi
                        };
                        if hi < lo {
                            return Err(self.err(format!("reversed character range `{lo}-{hi}`")));
                        }
                        ranges.push((lo, hi));
                    } else {
                        ranges.push((lo, lo));
                    }
                }
            }
        }
    }
}

/// Resolves an escape sequence to a character predicate.
fn escape_pred(c: char) -> CharPred {
    match c {
        'd' => CharPred::Class {
            negated: false,
            ranges: vec![('0', '9')],
        },
        'D' => CharPred::Class {
            negated: true,
            ranges: vec![('0', '9')],
        },
        'w' => CharPred::Class {
            negated: false,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        },
        'W' => CharPred::Class {
            negated: true,
            ranges: vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')],
        },
        's' => CharPred::Class {
            negated: false,
            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
        },
        'S' => CharPred::Class {
            negated: true,
            ranges: vec![(' ', ' '), ('\t', '\t'), ('\n', '\n'), ('\r', '\r')],
        },
        'n' => CharPred::Lit('\n'),
        't' => CharPred::Lit('\t'),
        'r' => CharPred::Lit('\r'),
        other => CharPred::Lit(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pattern: &str, text: &str) -> bool {
        Regex::new(pattern).unwrap().is_match(text)
    }

    #[test]
    fn literal_substring_match_is_unanchored() {
        assert!(m("test", "/mnt/test/file"));
        assert!(!m("test", "/mnt/tes/file"));
    }

    #[test]
    fn anchors_constrain_match_position() {
        assert!(m("^/mnt", "/mnt/test"));
        assert!(!m("^mnt", "/mnt/test"));
        assert!(m("test$", "/mnt/test"));
        assert!(!m("test$", "/mnt/test/x"));
        assert!(m("^/mnt/test$", "/mnt/test"));
    }

    #[test]
    fn dot_matches_any_character() {
        assert!(m("a.c", "abc"));
        assert!(m("a.c", "a/c"));
        assert!(!m("^a.c$", "ac"));
    }

    #[test]
    fn star_plus_question_repetitions() {
        assert!(m("^ab*c$", "ac"));
        assert!(m("^ab*c$", "abbbc"));
        assert!(m("^ab+c$", "abc"));
        assert!(!m("^ab+c$", "ac"));
        assert!(m("^ab?c$", "ac"));
        assert!(m("^ab?c$", "abc"));
        assert!(!m("^ab?c$", "abbc"));
    }

    #[test]
    fn counted_repetition() {
        assert!(m("^a{3}$", "aaa"));
        assert!(!m("^a{3}$", "aa"));
        assert!(m("^a{2,}$", "aaaa"));
        assert!(!m("^a{2,}$", "a"));
        assert!(m("^a{1,3}$", "aa"));
        assert!(!m("^a{1,3}$", "aaaa"));
        assert!(m("^a{0,1}$", ""));
    }

    #[test]
    fn alternation_with_groups() {
        assert!(m("^sys_(open|read|write)$", "sys_read"));
        assert!(!m("^sys_(open|read|write)$", "sys_lseek"));
        assert!(m("^(a|b)+$", "abab"));
    }

    #[test]
    fn classes_and_shorthands() {
        assert!(m(r"^[a-f0-9]+$", "deadbeef42"));
        assert!(!m(r"^[a-f0-9]+$", "xyz"));
        assert!(m(r"^\d+$", "12345"));
        assert!(!m(r"^\d+$", "12a45"));
        assert!(m(r"^\w+$", "open_at2"));
        assert!(m(r"^\s$", " "));
        assert!(m(r"^[^/]+$", "segment"));
        assert!(!m(r"^[^/]+$", "a/b"));
        assert!(m(r"^[\d_]+$", "12_3"));
    }

    #[test]
    fn escaped_metacharacters() {
        assert!(m(r"^a\.b$", "a.b"));
        assert!(!m(r"^a\.b$", "axb"));
        assert!(m(r"^a\*$", "a*"));
        assert!(m(r"^\(x\)$", "(x)"));
    }

    #[test]
    fn nested_groups_and_optionals() {
        let re = Regex::new(r"^/mnt/(test|scratch)(/.*)?$").unwrap();
        assert!(re.is_match("/mnt/test"));
        assert!(re.is_match("/mnt/scratch/a/b"));
        assert!(!re.is_match("/mnt/testx"));
        assert!(!re.is_match("/mnt/other/a"));
    }

    #[test]
    fn find_returns_leftmost_longest_offsets() {
        let re = Regex::new(r"b+").unwrap();
        let mat = re.find("aabbbcbb").unwrap();
        assert_eq!((mat.start(), mat.end()), (2, 5));
        assert_eq!(mat.len(), 3);
        assert!(!mat.is_empty());
    }

    #[test]
    fn find_empty_match_possible() {
        let re = Regex::new(r"x*").unwrap();
        let mat = re.find("yyy").unwrap();
        assert_eq!((mat.start(), mat.end()), (0, 0));
        assert!(mat.is_empty());
    }

    #[test]
    fn pathological_pattern_is_linear() {
        // Would be exponential with naive backtracking.
        let re = Regex::new("^(a?){24}a{24}$").unwrap();
        let text = "a".repeat(24);
        assert!(re.is_match(&text));
        let bad = "a".repeat(23);
        assert!(!re.is_match(&bad));
    }

    #[test]
    fn anchored_pattern_on_long_non_matching_text() {
        let re = Regex::new(r"^/mnt/test(/|$)").unwrap();
        let noise = "/var/log/".repeat(2_000);
        assert!(re.find(&noise).is_none());
        // The anchored literal inside the text is not a match either.
        assert!(re.find(&format!("{noise}/mnt/test/f")).is_none());
        let hit = re.find(&format!("/mnt/test/{noise}")).unwrap();
        assert_eq!((hit.start(), hit.end()), (0, 10));
        // A `^` inside an alternative does not anchor the whole pattern.
        let alt = Regex::new(r"^a|b").unwrap();
        assert_eq!(alt.find(&format!("{noise}b")).unwrap().start(), noise.len());
    }

    #[test]
    fn unanchored_pattern_on_long_non_matching_text() {
        let re = Regex::new(r"needle[0-9]+").unwrap();
        let hay = "needle-".repeat(2_000);
        assert!(re.find(&hay).is_none());
        let hit = re.find(&format!("{hay}needle42")).unwrap();
        assert_eq!((hit.start(), hit.end()), (hay.len(), hay.len() + 8));
        // Thread lists reused across starts leave no stale threads: a
        // partial match at one start must not leak into the next.
        let re = Regex::new(r"ab$").unwrap();
        assert_eq!(re.find("aaab").map(|m| m.start()), Some(2));
        assert!(re.find("abab-").is_none());
    }

    #[test]
    fn syntax_errors_are_reported() {
        assert!(Regex::new("(a").is_err());
        assert!(Regex::new("a)").is_err());
        assert!(Regex::new("[a").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{3,1}").is_err());
        assert!(Regex::new("a{x}").is_err());
        assert!(Regex::new("a\\").is_err());
        assert!(Regex::new("a{99999999999999}").is_err());
    }

    #[test]
    fn empty_pattern_matches_everything() {
        assert!(m("", ""));
        assert!(m("", "anything"));
    }

    #[test]
    fn display_roundtrips_source() {
        let re = Regex::new("^x$").unwrap();
        assert_eq!(re.to_string(), "^x$");
        assert_eq!(re.source(), "^x$");
    }

    #[test]
    fn mount_point_filter_patterns_from_paper() {
        // xfstests-style mount points.
        let re = Regex::new(r"^/mnt/(test|scratch)(/|$)").unwrap();
        assert!(re.is_match("/mnt/test"));
        assert!(re.is_match("/mnt/test/dir/file"));
        assert!(re.is_match("/mnt/scratch/f"));
        assert!(!re.is_match("/mnt/testdir/f"));
        assert!(!re.is_match("/home/user/f"));
    }
}
