// Package oplog is the line-oriented update-log wire format shared by
// cmd/dqdetect's -follow mode and cmd/dqserve's POST /batch endpoint:
// a stream of insert/update/delete ops batched by commit markers, each
// batch the unit a detect monitor applies atomically.
//
//	insert customer 44,131,1234567,Mike,Mayfield,NYC,EH4 8LE
//	update customer 3 city=EDI
//	delete customer 7
//	commit
//
// Comments (#) and blank lines are skipped; "commit" closes the batch
// accumulated so far (EOF closes the tail implicitly, and empty commits
// are dropped); insert values are one CSV record in schema order;
// update values parse like the relation's CSV cells, with the empty
// text standing for null. Parse errors carry the 1-based line they
// were raised on (SyntaxError), so front ends can point at the
// offending input line.
package oplog

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/detect"
	"repro/internal/relation"
)

// SyntaxError is a parse failure pinned to its input position.
type SyntaxError struct {
	Line int   // 1-based line of the offending input
	Err  error // the underlying error
}

func (e *SyntaxError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *SyntaxError) Unwrap() error { return e.Err }

// ParseOp parses one op line — insert/update/delete, not commit —
// against the schemas of the relations it may name.
func ParseOp(text string, schemas map[string]*relation.Schema) (detect.DBOp, error) {
	verb, rest, _ := strings.Cut(text, " ")
	rel, rest, _ := strings.Cut(strings.TrimSpace(rest), " ")
	s, ok := schemas[rel]
	if !ok {
		return detect.DBOp{}, fmt.Errorf("unknown relation %q", rel)
	}
	rest = strings.TrimSpace(rest)
	switch verb {
	case "insert":
		// The remainder is one CSV record in schema order.
		cr := csv.NewReader(strings.NewReader(rest))
		rec, err := cr.Read()
		if err != nil {
			return detect.DBOp{}, fmt.Errorf("insert %s: %v", rel, err)
		}
		if len(rec) != s.Arity() {
			return detect.DBOp{}, fmt.Errorf("insert %s: %d fields, want %d", rel, len(rec), s.Arity())
		}
		t := make(relation.Tuple, len(rec))
		for i, cell := range rec {
			v, err := relation.ParseValue(s.Attr(i).Domain.Kind(), cell)
			if err != nil {
				return detect.DBOp{}, fmt.Errorf("insert %s column %s: %v", rel, s.Attr(i).Name, err)
			}
			t[i] = v
		}
		return detect.InsertInto(rel, t), nil
	case "delete":
		id, err := strconv.Atoi(rest)
		if err != nil {
			return detect.DBOp{}, fmt.Errorf("delete %s: bad TID %q", rel, rest)
		}
		return detect.DeleteFrom(rel, relation.TID(id)), nil
	case "update":
		idText, assign, ok := strings.Cut(rest, " ")
		if !ok {
			return detect.DBOp{}, fmt.Errorf("update %s: want \"update %s <tid> <attr>=<value>\"", rel, rel)
		}
		id, err := strconv.Atoi(idText)
		if err != nil {
			return detect.DBOp{}, fmt.Errorf("update %s: bad TID %q", rel, idText)
		}
		attr, valText, ok := strings.Cut(assign, "=")
		if !ok {
			return detect.DBOp{}, fmt.Errorf("update %s: want <attr>=<value>, got %q", rel, assign)
		}
		pos, ok := s.Lookup(strings.TrimSpace(attr))
		if !ok {
			return detect.DBOp{}, fmt.Errorf("update %s: no attribute %q", rel, attr)
		}
		v, err := relation.ParseValue(s.Attr(pos).Domain.Kind(), valText)
		if err != nil {
			return detect.DBOp{}, fmt.Errorf("update %s.%s: %v", rel, attr, err)
		}
		return detect.UpdateIn(rel, relation.TID(id), pos, v), nil
	default:
		return detect.DBOp{}, fmt.Errorf("unknown op %q (want insert/update/delete/commit)", verb)
	}
}

// FormatOp renders one op as its wire line (no trailing newline). It
// fails on values the line-oriented format cannot round-trip: strings
// containing line breaks, and strings with leading or trailing
// whitespace — the parser trims whole lines, so padding on a record's
// edge cells (and on every update value) would be silently eaten on
// the way back in.
func FormatOp(op detect.DBOp, schemas map[string]*relation.Schema) (string, error) {
	s, ok := schemas[op.Rel]
	if !ok {
		return "", fmt.Errorf("oplog: unknown relation %q", op.Rel)
	}
	switch op.Op.Kind {
	case detect.OpInsert:
		if len(op.Op.Tuple) != s.Arity() {
			return "", fmt.Errorf("oplog: insert %s: %d values, want %d", op.Rel, len(op.Op.Tuple), s.Arity())
		}
		rec := make([]string, len(op.Op.Tuple))
		for i, v := range op.Op.Tuple {
			cell, err := cellText(v)
			if err != nil {
				return "", fmt.Errorf("oplog: insert %s column %s: %v", op.Rel, s.Attr(i).Name, err)
			}
			rec[i] = cell
		}
		var b strings.Builder
		cw := csv.NewWriter(&b)
		if err := cw.Write(rec); err != nil {
			return "", fmt.Errorf("oplog: insert %s: %v", op.Rel, err)
		}
		cw.Flush()
		return fmt.Sprintf("insert %s %s", op.Rel, strings.TrimSuffix(b.String(), "\n")), nil
	case detect.OpDelete:
		return fmt.Sprintf("delete %s %d", op.Rel, op.Op.TID), nil
	case detect.OpUpdate:
		if op.Op.Pos < 0 || op.Op.Pos >= s.Arity() {
			return "", fmt.Errorf("oplog: update %s: no attribute at position %d", op.Rel, op.Op.Pos)
		}
		cell, err := cellText(op.Op.Val)
		if err != nil {
			return "", fmt.Errorf("oplog: update %s.%s: %v", op.Rel, s.Attr(op.Op.Pos).Name, err)
		}
		return fmt.Sprintf("update %s %d %s=%s", op.Rel, op.Op.TID, s.Attr(op.Op.Pos).Name, cell), nil
	default:
		return "", fmt.Errorf("oplog: unknown op kind %v", op.Op.Kind)
	}
}

// cellText renders a value as the text ParseValue reads back: empty
// for null, Value.String otherwise. Line breaks break the framing;
// leading/trailing whitespace does not survive the parser's line trim
// when the cell sits on a record's edge (csv.Writer does not quote
// trailing spaces), so both are rejected outright.
func cellText(v relation.Value) (string, error) {
	if v.IsNull() {
		return "", nil
	}
	text := v.String()
	if text == "" {
		// The empty text is the wire encoding of null: an empty string
		// value would silently come back as Null.
		return "", errors.New("empty string value is not representable (parses back as null)")
	}
	if strings.ContainsAny(text, "\n\r") {
		return "", fmt.Errorf("value %q contains a line break", text)
	}
	if strings.TrimSpace(text) != text {
		return "", fmt.Errorf("value %q has leading or trailing whitespace", text)
	}
	return text, nil
}

// Reader decodes a wire stream batch by batch.
type Reader struct {
	sc      *bufio.Scanner
	schemas map[string]*relation.Schema
	line    int
	done    bool
}

// MaxLineBytes is the op-line ceiling a Reader accepts — far above any
// reasonable tuple, far below the default ingest body limits.
const MaxLineBytes = 1 << 20

// MaxBatchOps is the per-batch op ceiling a Reader accepts: a stream
// that accumulates more ops without a commit marker is rejected with a
// SyntaxError instead of buffering without bound. (The WAL encodes one
// commit per record, so this is also the widest batch the durability
// layer will round-trip.)
const MaxBatchOps = 1 << 16

// NewReader returns a Reader decoding ops against the given schemas.
func NewReader(r io.Reader, schemas map[string]*relation.Schema) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	return &Reader{sc: sc, schemas: schemas}
}

// Next returns the next non-empty committed batch, io.EOF at the end of
// the stream, or a *SyntaxError. The batch before an EOF is committed
// implicitly.
func (r *Reader) Next() ([]detect.DBOp, error) {
	if r.done {
		return nil, io.EOF
	}
	var batch []detect.DBOp
	for r.sc.Scan() {
		r.line++
		text := strings.TrimSpace(r.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if text == "commit" {
			if len(batch) == 0 {
				continue // empty commit: nothing to deliver
			}
			return batch, nil
		}
		op, err := ParseOp(text, r.schemas)
		if err != nil {
			r.done = true
			// A read error (body-size cap, broken connection) makes the
			// scanner deliver whatever it buffered as a final partial
			// line; a parse failure there is a symptom, not the cause —
			// report the I/O error so callers can tell 413 from 400.
			if rerr := r.sc.Err(); rerr != nil {
				return nil, &SyntaxError{Line: r.line, Err: rerr}
			}
			return nil, &SyntaxError{Line: r.line, Err: err}
		}
		if len(batch) >= MaxBatchOps {
			r.done = true
			return nil, &SyntaxError{Line: r.line,
				Err: fmt.Errorf("batch exceeds %d ops without a commit marker", MaxBatchOps)}
		}
		batch = append(batch, op)
	}
	r.done = true
	if err := r.sc.Err(); err != nil {
		// Scanner failures (an over-long line, an I/O error) happen on
		// the line after the last delivered one — position them too.
		if errors.Is(err, bufio.ErrTooLong) {
			err = fmt.Errorf("op line exceeds %d bytes: %w", MaxLineBytes, err)
		}
		return nil, &SyntaxError{Line: r.line + 1, Err: err}
	}
	if len(batch) > 0 {
		return batch, nil // implicit commit of the tail
	}
	return nil, io.EOF
}

// Parse decodes a whole stream into its batches.
func Parse(rd io.Reader, schemas map[string]*relation.Schema) ([][]detect.DBOp, error) {
	r := NewReader(rd, schemas)
	var batches [][]detect.DBOp
	for {
		batch, err := r.Next()
		if errors.Is(err, io.EOF) {
			return batches, nil
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, batch)
	}
}

// Format encodes batches in the wire format, one op per line, each
// batch closed by a commit marker — the exact stream Parse reads back.
func Format(w io.Writer, batches [][]detect.DBOp, schemas map[string]*relation.Schema) error {
	bw := bufio.NewWriter(w)
	for _, batch := range batches {
		if len(batch) == 0 {
			continue
		}
		for _, op := range batch {
			line, err := FormatOp(op, schemas)
			if err != nil {
				return err
			}
			if _, err := bw.WriteString(line + "\n"); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString("commit\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}
