package ecfd

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/relation"
)

// Text format for eCFDs, extending the cfd format with set cells:
//
//	ecfd nycust: [CT] -> [AC]
//	  notin{NYC,LI} || _
//	  in{NYC} || in{212,718,646,347,917}
//
// Cells are '_', a bare constant (singleton ∈ set), in{v1,v2,...} or
// notin{v1,v2,...}. Blank lines and '#' comments are ignored.

// Parse reads eCFDs in the text format; schemas are resolved by relation
// name.
func Parse(r io.Reader, schemas map[string]*relation.Schema) ([]*ECFD, error) {
	sc := bufio.NewScanner(r)
	var out []*ECFD
	var cur *ECFD
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if strings.HasPrefix(text, "ecfd ") {
			e, err := parseHeader(text[5:], schemas)
			if err != nil {
				return nil, fmt.Errorf("ecfd: line %d: %v", line, err)
			}
			out = append(out, e)
			cur = e
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("ecfd: line %d: pattern row before any 'ecfd' header", line)
		}
		row, err := parseRow(text, cur)
		if err != nil {
			return nil, fmt.Errorf("ecfd: line %d: %v", line, err)
		}
		ne, err := New(cur.schema, names(cur.schema, cur.lhs), names(cur.schema, cur.rhs), append(cur.tableau, row)...)
		if err != nil {
			return nil, fmt.Errorf("ecfd: line %d: %v", line, err)
		}
		*cur = *ne
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range out {
		if len(e.tableau) == 0 {
			return nil, fmt.Errorf("ecfd: %s has an empty tableau", e)
		}
	}
	return out, nil
}

// ParseString is Parse over a string.
func ParseString(s string, schemas map[string]*relation.Schema) ([]*ECFD, error) {
	return Parse(strings.NewReader(s), schemas)
}

func names(s *relation.Schema, pos []int) []string {
	out := make([]string, len(pos))
	for i, p := range pos {
		out[i] = s.Attr(p).Name
	}
	return out
}

func parseHeader(s string, schemas map[string]*relation.Schema) (*ECFD, error) {
	relName, rest, ok := strings.Cut(s, ":")
	if !ok {
		return nil, fmt.Errorf("header %q: want '<relation>: [X] -> [Y]'", s)
	}
	schema, ok := schemas[strings.TrimSpace(relName)]
	if !ok {
		return nil, fmt.Errorf("unknown relation %q", strings.TrimSpace(relName))
	}
	lhsPart, rhsPart, ok := strings.Cut(rest, "->")
	if !ok {
		return nil, fmt.Errorf("header %q: missing '->'", s)
	}
	lhs, err := parseAttrList(lhsPart)
	if err != nil {
		return nil, err
	}
	rhs, err := parseAttrList(rhsPart)
	if err != nil {
		return nil, err
	}
	return New(schema, lhs, rhs)
}

func parseAttrList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("attribute list %q: want [A, B, ...]", s)
	}
	inner := strings.TrimSpace(s[1 : len(s)-1])
	if inner == "" {
		return nil, fmt.Errorf("empty attribute list")
	}
	parts := strings.Split(inner, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
		if out[i] == "" {
			return nil, fmt.Errorf("empty attribute in %q", s)
		}
	}
	return out, nil
}

func parseRow(s string, e *ECFD) (Row, error) {
	lhsPart, rhsPart, ok := strings.Cut(s, "||")
	if !ok {
		return Row{}, fmt.Errorf("pattern row %q: missing '||'", s)
	}
	lhs, err := parseCells(lhsPart, e.schema, e.lhs)
	if err != nil {
		return Row{}, err
	}
	rhs, err := parseCells(rhsPart, e.schema, e.rhs)
	if err != nil {
		return Row{}, err
	}
	return Row{LHS: lhs, RHS: rhs}, nil
}

// splitTop splits on commas not inside braces.
func splitTop(s string) []string {
	var out []string
	depth := 0
	var cur strings.Builder
	for _, r := range s {
		switch {
		case r == '{':
			depth++
			cur.WriteRune(r)
		case r == '}':
			depth--
			cur.WriteRune(r)
		case r == ',' && depth == 0:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	out = append(out, cur.String())
	return out
}

func parseCells(s string, schema *relation.Schema, pos []int) ([]Cell, error) {
	raw := splitTop(s)
	if len(raw) != len(pos) {
		return nil, fmt.Errorf("pattern %q: %d cells, want %d", strings.TrimSpace(s), len(raw), len(pos))
	}
	out := make([]Cell, len(raw))
	for i, cellText := range raw {
		cellText = strings.TrimSpace(cellText)
		kind := schema.Attr(pos[i]).Domain.Kind()
		cell, err := parseCell(cellText, kind)
		if err != nil {
			return nil, fmt.Errorf("cell %q for %s: %v", cellText, schema.Attr(pos[i]).Name, err)
		}
		out[i] = cell
	}
	return out, nil
}

func parseCell(s string, kind relation.Kind) (Cell, error) {
	switch {
	case s == "_":
		return Any(), nil
	case strings.HasPrefix(s, "in{") && strings.HasSuffix(s, "}"):
		vals, err := parseSet(s[3:len(s)-1], kind)
		if err != nil {
			return Cell{}, err
		}
		return In(vals...), nil
	case strings.HasPrefix(s, "notin{") && strings.HasSuffix(s, "}"):
		vals, err := parseSet(s[6:len(s)-1], kind)
		if err != nil {
			return Cell{}, err
		}
		return NotIn(vals...), nil
	default:
		v, err := relation.ParseValue(kind, s)
		if err != nil {
			return Cell{}, err
		}
		return Const(v), nil
	}
}

func parseSet(inner string, kind relation.Kind) ([]relation.Value, error) {
	parts := strings.Split(inner, ",")
	out := make([]relation.Value, 0, len(parts))
	for _, p := range parts {
		v, err := relation.ParseValue(kind, strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Format renders an eCFD set in the Parse text format.
func Format(w io.Writer, set []*ECFD) error {
	for _, e := range set {
		if _, err := fmt.Fprintf(w, "ecfd %s: [%s] -> [%s]\n",
			e.schema.Name(),
			strings.Join(names(e.schema, e.lhs), ", "),
			strings.Join(names(e.schema, e.rhs), ", ")); err != nil {
			return err
		}
		for _, row := range e.tableau {
			if _, err := fmt.Fprintf(w, "  %s || %s\n", formatCells(row.LHS, true), formatCells(row.RHS, false)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatCells renders one side of a pattern row; lead marks the LHS,
// whose first cell starts the line.
func formatCells(cs []Cell, lead bool) string {
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = formatCell(c, lead && i == 0, i == len(cs)-1)
	}
	return strings.Join(parts, ", ")
}

// formatCell writes in{v1,...} or notin{...} with Null as the empty value,
// or a one-value ∈ cell no set can hold as its bare constant. first marks
// a line's first cell, last a side's final one, whose braces may be unbalanced.
func formatCell(c Cell, first, last bool) string {
	if c.op == OpAny {
		return "_"
	}
	vals := make([]string, len(c.set))
	for i, v := range c.set {
		if !v.IsNull() {
			vals[i] = v.String()
		}
	}
	name := "in"
	if c.op == OpNotIn {
		name = "notin"
	}
	if seq := setValues(vals, last); seq != nil {
		return name + "{" + strings.Join(seq, ",") + "}"
	}
	if c.op == OpIn && len(vals) == 1 && readsBare(vals[0], first, last) {
		return vals[0]
	}
	return name + "{" + strings.Join(vals, ",") + "}"
}

// readsBare reports whether parseCell reads s, written as a bare cell,
// back as the constant s.
func readsBare(s string, first, last bool) bool {
	switch {
	case s == "_" || s != strings.TrimSpace(s) || len(splitTop(s)) != 1:
		return false
	case !last && strings.Count(s, "{") != strings.Count(s, "}"):
		return false
	case strings.HasSuffix(s, "}") && (strings.HasPrefix(s, "in{") || strings.HasPrefix(s, "notin{")):
		return false
	}
	return !first || !strings.HasPrefix(s, "#") && !strings.HasPrefix(s, "ecfd ")
}

// setValues returns the values to write between a set cell's braces so that
// splitTop reads the cell back whole, or nil. Parse keeps the first of equal
// values, so a repeat changes only the brace depth at the commas.
func setValues(vals []string, last bool) []string {
	if strings.Contains(strings.Join(vals, ""), ",") {
		return nil
	}
	seq := make([]string, 0, len(vals))
	failed := make(map[[3]int]bool)
	// walk writes vals[next:] from brace depth depth with extra repeats.
	var walk func(next, depth, extra int) bool
	walk = func(next, depth, extra int) bool {
		if next == len(vals) && (last || depth == 1) {
			return true
		}
		key := [3]int{next, depth, extra}
		if failed[key] || next > 0 && depth == 0 { // the next comma would split the cell
			return false
		}
		emit := func(v string, next, extra int) bool {
			seq = append(seq, v)
			if walk(next, depth+strings.Count(v, "{")-strings.Count(v, "}"), extra) {
				return true
			}
			seq = seq[:len(seq)-1]
			return false
		}
		if next < len(vals) && emit(vals[next], next+1, extra) {
			return true
		}
		for _, v := range vals[:next] {
			if extra > 0 && emit(v, next, extra-1) {
				return true
			}
		}
		failed[key] = true
		return false
	}
	for extra := 0; extra <= len(vals); extra++ {
		if walk(0, 1, extra) {
			return seq
		}
	}
	return nil
}
