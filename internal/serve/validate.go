// Ingest-edge validation: every Submit request is checked op by op
// against the writer-local tip BEFORE it is WAL-logged or applied, so a
// malformed request is rejected with a structured OpError — naming the
// op index and the reason — while the monitor state (and the log) stay
// untouched. Validation is per request, not per coalesced batch: one
// bad request in a coalesced commit rejects only itself; the valid
// requests around it commit normally.
package serve

import (
	"fmt"

	"repro/internal/detect"
	"repro/internal/oplog"
	"repro/internal/relation"
)

// OpError reports the first invalid op of a rejected Submit: its index
// in the request's op slice and the reason it was refused. The request
// was not applied — not even a prefix — and the published state did not
// change.
type OpError struct {
	Index  int
	Reason string
}

func (e *OpError) Error() string {
	return fmt.Sprintf("serve: op %d: %s", e.Index, e.Reason)
}

// relDelta is one relation's speculative state while validating the
// requests of one coalesced commit: inserts allocate TIDs upward from
// the live next-TID, deletes tombstone existing (or just-inserted)
// TIDs. Accepted requests' effects are visible to the requests after
// them — matching the order the monitor will apply them in.
type relDelta struct {
	nextTID relation.TID
	inserts relation.TID // TIDs [nextTID, nextTID+inserts) are pending inserts
	deleted map[relation.TID]bool
}

func (d *relDelta) clone() *relDelta {
	cp := &relDelta{nextTID: d.nextTID, inserts: d.inserts,
		deleted: make(map[relation.TID]bool, len(d.deleted))}
	for id := range d.deleted {
		cp.deleted[id] = true
	}
	return cp
}

// validator validates requests against the writer-local tip plus the
// accepted requests before them. Sequencer-only: it reads the live
// shard instances, which only the ingest loop mutates.
type validator struct {
	s    *Service
	rels map[string]*relDelta // accepted view, per touched relation
}

func (s *Service) newValidator() *validator {
	return &validator{s: s, rels: make(map[string]*relDelta)}
}

// accepted returns the accepted-view delta for one relation, creating
// it from the live allocator position on first use; ok is false for an
// unknown relation.
func (v *validator) accepted(name string) (*relDelta, bool) {
	if d, ok := v.rels[name]; ok {
		return d, true
	}
	if _, ok := v.s.schemas[name]; !ok {
		return nil, false
	}
	d := &relDelta{nextTID: v.s.sdb.NextTID(name), deleted: make(map[relation.TID]bool)}
	v.rels[name] = d
	return d, true
}

// exists reports whether the TID is live under the delta: pending
// insertion or present in the store, and not tombstoned.
func (v *validator) exists(name string, d *relDelta, id relation.TID) bool {
	if d.deleted[id] {
		return false
	}
	if id >= d.nextTID {
		return id < d.nextTID+d.inserts
	}
	_, ok := v.s.sdb.ShardOfTID(name, id)
	return ok
}

// validate checks one request's ops in order. On success the request's
// effects are folded into the cumulative view and nil is returned; on
// the first invalid op the view is left exactly as before the call (the
// request will not be applied) and the *OpError describes the op.
func (v *validator) validate(ops []detect.DBOp) error {
	if len(ops) > oplog.MaxBatchOps {
		// One commit is one WAL record in the oplog wire format; a wider
		// request could never be replayed, so it is refused up front.
		return &OpError{Index: oplog.MaxBatchOps, Reason: fmt.Sprintf(
			"request of %d ops exceeds the %d-op ceiling", len(ops), oplog.MaxBatchOps)}
	}
	// Stage effects on clones; fold into v.rels only if every op passes.
	staged := make(map[string]*relDelta)
	for i, op := range ops {
		sd := staged[op.Rel]
		if sd == nil {
			d, ok := v.accepted(op.Rel)
			if !ok {
				return &OpError{Index: i, Reason: fmt.Sprintf("unknown relation %q", op.Rel)}
			}
			sd = d.clone()
			staged[op.Rel] = sd
		}
		sch := v.s.schemas[op.Rel]
		switch op.Op.Kind {
		case detect.OpInsert:
			if len(op.Op.Tuple) != sch.Arity() {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: insert arity %d, want %d", op.Rel, len(op.Op.Tuple), sch.Arity())}
			}
			for p, val := range op.Op.Tuple {
				if !sch.Attr(p).Domain.Contains(val) {
					return &OpError{Index: i, Reason: fmt.Sprintf(
						"%s: value %v not in dom(%s)", op.Rel, val, sch.Attr(p).Name)}
				}
			}
			sd.inserts++
		case detect.OpDelete:
			if sd.deleted[op.Op.TID] {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: duplicate delete of tuple %d", op.Rel, op.Op.TID)}
			}
			if !v.exists(op.Rel, sd, op.Op.TID) {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: delete of missing tuple %d", op.Rel, op.Op.TID)}
			}
			sd.deleted[op.Op.TID] = true
		case detect.OpUpdate:
			if op.Op.Pos < 0 || op.Op.Pos >= sch.Arity() {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: update position %d out of range (arity %d)", op.Rel, op.Op.Pos, sch.Arity())}
			}
			if !sch.Attr(op.Op.Pos).Domain.Contains(op.Op.Val) {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: value %v not in dom(%s)", op.Rel, op.Op.Val, sch.Attr(op.Op.Pos).Name)}
			}
			if !v.exists(op.Rel, sd, op.Op.TID) {
				return &OpError{Index: i, Reason: fmt.Sprintf(
					"%s: update of missing tuple %d", op.Rel, op.Op.TID)}
			}
		default:
			return &OpError{Index: i, Reason: fmt.Sprintf("unknown op kind %d", op.Op.Kind)}
		}
	}
	for name, sd := range staged {
		v.rels[name] = sd
	}
	return nil
}
