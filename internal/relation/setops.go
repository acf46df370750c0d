package relation

import (
	"fmt"

	"pcqe/internal/lineage"
)

// Union merges two union-compatible inputs. With All set duplicates are
// kept; otherwise rows equal across inputs are merged and their lineages
// OR-ed (the row exists if either source row does).
type Union struct {
	Left, Right Operator
	All         bool

	buffer []*Tuple
	pos    int
	opened bool
}

// Schema implements Operator.
func (u *Union) Schema() *Schema { return u.Left.Schema() }

// Open implements Operator.
func (u *Union) Open() error {
	if !u.Left.Schema().Compatible(u.Right.Schema()) {
		return fmt.Errorf("relation: UNION inputs are not union-compatible: %s vs %s",
			u.Left.Schema(), u.Right.Schema())
	}
	left, err := Run(u.Left)
	if err != nil {
		return err
	}
	right, err := Run(u.Right)
	if err != nil {
		return err
	}
	u.pos = 0
	if u.All {
		u.buffer = append(append([]*Tuple{}, left...), right...)
		return nil
	}
	u.buffer, _ = mergeDuplicates(append(append([]*Tuple{}, left...), right...))
	return nil
}

// Next implements Operator.
func (u *Union) Next() (*Tuple, error) {
	if u.pos >= len(u.buffer) {
		return nil, nil
	}
	t := u.buffer[u.pos]
	u.pos++
	return t, nil
}

// Close implements Operator.
func (u *Union) Close() error {
	u.buffer = nil
	return nil
}

// Intersect emits rows present in both inputs (set semantics). A row's
// lineage is left ∧ right: it appears in the intersection only if both
// occurrences are real.
type Intersect struct {
	Left, Right Operator

	buffer []*Tuple
	pos    int
}

// Schema implements Operator.
func (op *Intersect) Schema() *Schema { return op.Left.Schema() }

// Open implements Operator.
func (op *Intersect) Open() error {
	if !op.Left.Schema().Compatible(op.Right.Schema()) {
		return fmt.Errorf("relation: INTERSECT inputs are not union-compatible")
	}
	left, err := Run(op.Left)
	if err != nil {
		return err
	}
	right, err := Run(op.Right)
	if err != nil {
		return err
	}
	// Deduplicate each side, OR-ing lineages of duplicates; the output
	// keeps left-input order.
	lrows, _ := mergeDuplicates(left)
	rrows, rindex := mergeDuplicates(right)
	op.buffer, op.pos = nil, 0
	for _, t := range lrows {
		if j, ok := rindex[t.Key()]; ok {
			op.buffer = append(op.buffer, &Tuple{
				Values:  t.Values,
				Lineage: lineage.And(t.Lineage, rrows[j].Lineage),
			})
		}
	}
	return nil
}

// Next implements Operator.
func (op *Intersect) Next() (*Tuple, error) {
	if op.pos >= len(op.buffer) {
		return nil, nil
	}
	t := op.buffer[op.pos]
	op.pos++
	return t, nil
}

// Close implements Operator.
func (op *Intersect) Close() error {
	op.buffer = nil
	return nil
}

// Except emits rows of the left input absent from the right (set
// semantics). A row's lineage is left ∧ ¬right: the row survives only if
// its left occurrence is real and the matching right occurrence is not.
type Except struct {
	Left, Right Operator

	buffer []*Tuple
	pos    int
}

// Schema implements Operator.
func (op *Except) Schema() *Schema { return op.Left.Schema() }

// Open implements Operator.
func (op *Except) Open() error {
	if !op.Left.Schema().Compatible(op.Right.Schema()) {
		return fmt.Errorf("relation: EXCEPT inputs are not union-compatible")
	}
	left, err := Run(op.Left)
	if err != nil {
		return err
	}
	right, err := Run(op.Right)
	if err != nil {
		return err
	}
	// Merge duplicates on each side (OR), then attach ∧¬right.
	rrows, rindex := mergeDuplicates(right)
	op.pos = 0
	op.buffer, _ = mergeDuplicates(left)
	for i, t := range op.buffer {
		if j, ok := rindex[t.Key()]; ok {
			op.buffer[i] = &Tuple{Values: t.Values, Lineage: lineage.And(t.Lineage, lineage.Not(rrows[j].Lineage))}
		}
	}
	return nil
}

// Next implements Operator.
func (op *Except) Next() (*Tuple, error) {
	if op.pos >= len(op.buffer) {
		return nil, nil
	}
	t := op.buffer[op.pos]
	op.pos++
	return t, nil
}

// Close implements Operator.
func (op *Except) Close() error {
	op.buffer = nil
	return nil
}

// PinVersion implements VersionPinner.
func (u *Union) PinVersion(v int64) {
	PinOperator(u.Left, v)
	PinOperator(u.Right, v)
}

// PinVersion implements VersionPinner.
func (i *Intersect) PinVersion(v int64) {
	PinOperator(i.Left, v)
	PinOperator(i.Right, v)
}

// PinVersion implements VersionPinner.
func (e *Except) PinVersion(v int64) {
	PinOperator(e.Left, v)
	PinOperator(e.Right, v)
}
