package relation

// Delete removes the rows matching pred (a boolean expression over the
// table's schema) in its own committed transaction and returns how many
// were removed. Deleted rows stay resolvable through the catalog by
// their lineage variable — previously computed result lineages remain
// meaningful — but resolve to confidence 0, reflecting that the fact
// has been withdrawn. On any predicate error the transaction rolls back
// and nothing changes.
func (t *Table) Delete(pred Expr) (int, error) {
	x := t.catalog.Begin()
	n, err := x.Delete(t, pred)
	if err != nil {
		x.Rollback()
		return 0, err
	}
	if _, err := x.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}

// rowTupleWithConfidence builds the predicate-evaluation image of a
// stored row: its values plus the current confidence appended as one
// extra REAL value, so predicates compiled against the schema extended
// with the _confidence pseudo-column (see the sql package) can read it;
// predicates compiled against the plain schema simply ignore the extra
// slot. row is a version of slot, whose leaf is the image's lineage.
func rowTupleWithConfidence(slot *versionSlot, row *BaseTuple) *Tuple {
	vals := make([]Value, 0, len(row.Values)+1)
	vals = append(vals, row.Values...)
	vals = append(vals, Float(row.Confidence))
	return &Tuple{Values: vals, Lineage: &slot.leaf}
}

// UpdateSpec describes one column (or confidence) assignment in an
// Update call.
type UpdateSpec struct {
	// Column is the target column index; -1 targets the row's
	// confidence instead (the SQL layer maps the pseudo-column
	// "_confidence" here).
	Column int
	// Value computes the new value over the pre-update row.
	Value Expr
}

// Update applies the assignments to every row matching pred in its own
// committed transaction and returns the number of rows changed. Type
// checking matches Insert; confidence assignments must produce a
// numeric value in [0, MaxConf]. On any error the transaction rolls
// back and nothing changes (all-or-nothing, unlike the historical
// in-place behavior that left earlier rows modified).
func (t *Table) Update(pred Expr, specs []UpdateSpec) (int, error) {
	x := t.catalog.Begin()
	n, err := x.Update(t, pred, specs)
	if err != nil {
		x.Rollback()
		return 0, err
	}
	if _, err := x.Commit(); err != nil {
		return 0, err
	}
	return n, nil
}
