package placement

import (
	"repro/internal/core"
)

// Replica identifies one (server, site) replica in a diff.
type Replica struct {
	Server int `json:"server"`
	Site   int `json:"site"`
}

// DiffResult describes how to turn one placement into another: the
// replicas to create, the replicas to drop, and the transfer volume the
// creations cost. Drops are free — §2.1's migration expense is all in
// hauling site bytes to the new holder.
type DiffResult struct {
	Created []Replica `json:"created"`
	Dropped []Replica `json:"dropped"`
	// TransferGBHops is Σ o_j·C(i, SP_j) over Created, in GB·hops:
	// each new replica fetches the whole site from its primary copy.
	TransferGBHops float64 `json:"transfer_gb_hops"`
}

// Empty reports whether the diff changes nothing.
func (d DiffResult) Empty() bool { return len(d.Created) == 0 && len(d.Dropped) == 0 }

// Diff compares two placements of same-shaped systems and returns the
// replica creations and drops that turn old into new, with the transfer
// cost of the creations priced on new's system (derived epoch systems
// share cost matrices with their base, so the price is the same either
// way). A nil old means "from scratch": every replica of new is a
// creation. Both internal/dynamic and internal/control account replica
// movement through this one helper.
func Diff(old, new *core.Placement) DiffResult {
	sys := new.System()
	var d DiffResult
	for i := 0; i < sys.N(); i++ {
		for j := 0; j < sys.M(); j++ {
			has, had := new.Has(i, j), old != nil && old.Has(i, j)
			switch {
			case has && !had:
				d.Created = append(d.Created, Replica{Server: i, Site: j})
				d.TransferGBHops += float64(sys.SiteBytes[j]) * sys.CostOrigin[i][j] / 1e9
			case !has && had:
				d.Dropped = append(d.Dropped, Replica{Server: i, Site: j})
			}
		}
	}
	return d
}
