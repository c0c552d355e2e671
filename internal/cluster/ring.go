package cluster

import "viewstags/internal/ring"

// Ring is ring.Ring under its former name; bench/ builds its rings
// through it and NewRing.
type Ring = ring.Ring

// NewRing is ring.New(shards, 1). The vnode count is fixed now, so vnodes
// is ignored.
func NewRing(shards, vnodes int) (*Ring, error) { return ring.New(shards, 1) }
