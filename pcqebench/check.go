package main

import (
	"fmt"
	"math"

	"pcqe/internal/conf"
	"pcqe/internal/core"
	"pcqe/internal/relation"
)

// checkResponse re-verifies an in-process response against the
// database at the version it read: every row's confidence must match
// Snapshot.Confidence within conf.VerifyEps, every released row must be
// above β and every withheld row at or below it.
func checkResponse(cat *relation.Catalog, resp *core.Response) error {
	if !resp.PolicyApplied {
		return fmt.Errorf("no policy applied to a policied identity")
	}
	snap, err := cat.SnapshotAt(resp.Version)
	if err != nil {
		return err
	}
	defer snap.Release()
	for _, row := range resp.Released {
		if !(row.Confidence > resp.Threshold) {
			return fmt.Errorf("released row %v at confidence %g is not above β %g", row.Tuple.Values, row.Confidence, resp.Threshold)
		}
	}
	for _, row := range resp.Withheld {
		if row.Confidence > resp.Threshold {
			return fmt.Errorf("withheld row %v at confidence %g is above β %g", row.Tuple.Values, row.Confidence, resp.Threshold)
		}
	}
	for _, rows := range [][]core.Row{resp.Released, resp.Withheld} {
		for _, row := range rows {
			if want := snap.Confidence(row.Tuple); math.Abs(want-row.Confidence) > conf.VerifyEps {
				return fmt.Errorf("row %v: confidence %g, recomputed %g at version %d", row.Tuple.Values, row.Confidence, want, resp.Version)
			}
		}
	}
	return nil
}

// checkImproved verifies a re-run after Engine.Apply: at least ⌈θ·n⌉
// of its n rows must now be released.
func checkImproved(resp *core.Response, theta float64) error {
	n := len(resp.Released) + len(resp.Withheld)
	if want := int(math.Ceil(theta * float64(n))); len(resp.Released) < want {
		return fmt.Errorf("after apply %d of %d rows released, θ=%g needs %d", len(resp.Released), n, theta, want)
	}
	return nil
}

// checkReplay verifies that replaying the audit journal's applies gives
// every improved tuple the confidence the catalog holds.
func checkReplay(eng *core.Engine) error {
	cat := eng.Catalog()
	snap := cat.Snapshot()
	defer snap.Release()
	for v, p := range eng.Audit().ReplayConfidences(snap.Version()) {
		if got := snap.ProbOf(v); !conf.Eq(got, p) {
			return fmt.Errorf("audit replay gives tuple %d confidence %g, catalog holds %g", int(v), p, got)
		}
	}
	return nil
}
