package serve

import (
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/cfd"
	"repro/internal/cind"
	"repro/internal/detect"
	"repro/internal/ecfd"
	"repro/internal/relation"
)

// ruleInfo is what reports say about one monitored dependency, computed
// once in New rather than once per violation per read.
type ruleInfo struct {
	class string // detect.Class name
	text  string // the rule as the command-line reports print it (%v)
	rel   string // the relation its violations' TIDs live in
	key   string // class + " " + text: the /trends series name
	// head is the opening of every wire violation of this rule,
	// `{"class":…,"rule":…,"rel":…,"row":`, in encoding/json's bytes.
	head []byte
}

func newRuleInfo(class, text, rel string) ruleInfo {
	head := append([]byte(nil), `{"class":`...)
	head = appendJSONString(head, class)
	head = append(head, `,"rule":`...)
	head = appendJSONString(head, text)
	head = append(head, `,"rel":`...)
	head = appendJSONString(head, rel)
	head = append(head, `,"row":`...)
	return ruleInfo{class: class, text: text, rel: rel, key: class + " " + text, head: head}
}

// ruleSet is the report-side view of Σ: one ruleInfo per distinct
// dependency, in Σ order (a dependency listed twice reports once — the
// order /stats lists constraints in), and the dependency → ordinal map
// per-rule counts are indexed by.
type ruleSet struct {
	infos []ruleInfo
	index map[any]int
}

func newRuleSet(cs []detect.Constraint) *ruleSet {
	rs := &ruleSet{index: make(map[any]int, len(cs))}
	for _, c := range cs {
		if _, ok := rs.index[c.Dep()]; ok {
			continue
		}
		rs.index[c.Dep()] = len(rs.infos)
		rs.infos = append(rs.infos, newRuleInfo(c.Class().String(), fmt.Sprint(c.Dep()), c.Primary()))
	}
	return rs
}

// tally adds sign to the per-rule count of every violation in vs.
func (rs *ruleSet) tally(counts []int, vs []detect.Violation, sign int) {
	for _, v := range vs {
		if i, ok := rs.index[detect.DepOf(v)]; ok {
			counts[i] += sign
		}
	}
}

// keyOf returns the /trends key of v's rule.
func (rs *ruleSet) keyOf(v detect.Violation) (string, bool) {
	i, ok := rs.index[detect.DepOf(v)]
	if !ok {
		return "", false
	}
	return rs.infos[i].key, true
}

// appendJSON appends one violation's wire object — byte-identical to
// what encoding/json (HTML escaping off) writes for
//
//	{class, rule, rel, row, t1, t2 (omitempty pointer), attr (omitempty), text}
//
// which is the GET /violations element and the SSE delta element.
func (rs *ruleSet) appendJSON(dst []byte, v detect.Violation) []byte {
	if i, ok := rs.index[detect.DepOf(v)]; ok {
		dst = append(dst, rs.infos[i].head...)
	} else {
		dst = append(dst, newRuleInfo(detect.ClassOf(v).String(), fmt.Sprint(detect.DepOf(v)), detect.RelationOf(v)).head...)
	}
	var (
		row    int
		t1, t2 relation.TID
		hasT2  bool
		attr   string
	)
	switch v := v.(type) {
	case cfd.Violation:
		row, t1, t2, hasT2, attr = v.Row, v.T1, v.T2, true, v.CFD.Schema().Attr(v.Attr).Name
	case cind.Violation:
		row, t1 = v.Row, v.TID
	case ecfd.Violation:
		row, t1, t2, hasT2, attr = v.Row, v.T1, v.T2, true, v.ECFD.Schema().Attr(v.Attr).Name
	}
	dst = strconv.AppendInt(dst, int64(row), 10)
	dst = append(dst, `,"t1":`...)
	dst = strconv.AppendInt(dst, int64(t1), 10)
	if hasT2 {
		dst = append(dst, `,"t2":`...)
		dst = strconv.AppendInt(dst, int64(t2), 10)
	}
	if attr != "" {
		dst = append(dst, `,"attr":`...)
		dst = appendJSONString(dst, attr)
	}
	dst = append(dst, `,"text":`...)
	var buf [256]byte
	dst = appendJSONString(dst, appendViolationText(buf[:0], v))
	return append(dst, '}')
}

// appendJSONList appends the comma-joined wire objects of vs (no
// brackets).
func (rs *ruleSet) appendJSONList(dst []byte, vs []detect.Violation) []byte {
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = rs.appendJSON(dst, v)
	}
	return dst
}

// appendText appends the canonical plain-text rendering of vs: one
// String() per line.
func appendText(dst []byte, vs []detect.Violation) []byte {
	for _, v := range vs {
		dst = appendViolationText(dst, v)
		dst = append(dst, '\n')
	}
	return dst
}

// appendViolationText appends v.String() without building the string.
func appendViolationText(dst []byte, v detect.Violation) []byte {
	switch v := v.(type) {
	case cfd.Violation:
		return v.AppendTo(dst)
	case cind.Violation:
		return v.AppendTo(dst)
	case ecfd.Violation:
		return v.AppendTo(dst)
	}
	return append(dst, v.String()...)
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with SetEscapeHTML(false): '"', '\\' and control bytes escaped
// (\b \f \n \r \t by name, the rest as \u00XX), invalid UTF-8 replaced
// by U+FFFD, U+2028 and U+2029 escaped, everything else verbatim.
func appendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		c, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
