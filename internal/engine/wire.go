package engine

import (
	"encoding/json"

	"nwdec/internal/code"
	"nwdec/internal/core"
	"nwdec/internal/nwerr"
	"nwdec/internal/sweep"
)

// wireRequest is the JSON interchange form of a Request for the cluster
// peer protocol. It mirrors the identity fields exactly — both ends of
// the protocol run the same binary, so the encoding only needs to be a
// faithful round trip, not a versioned format. Workers is deliberately
// absent: it is an execution detail excluded from the content address,
// and the owning node computes with its own worker bound.
type wireRequest struct {
	Kind       Kind           `json:"kind"`
	Config     core.Config    `json:"config"`
	Experiment string         `json:"experiment,omitempty"`
	Grid       sweep.Grid     `json:"grid"`
	Objective  core.Objective `json:"objective"`
	Types      []code.Type    `json:"types,omitempty"`
	Lengths    []int          `json:"lengths,omitempty"`
	Count      int            `json:"count,omitempty"`
	Seed       uint64         `json:"seed,omitempty"`
	Trials     int            `json:"trials,omitempty"`
	Lo         int            `json:"lo,omitempty"`
	Hi         int            `json:"hi,omitempty"`
}

// Wireable reports whether the request can cross the peer protocol: its
// result must be shareable (cacheable kind) and its identity fields must
// survive a JSON round trip. A custom threshold model is the one
// identity field that cannot — Config.Model is an interface, and only
// in-process callers can supply one — so such requests always compute on
// the node that received them.
func (r Request) Wireable() bool {
	return r.Kind.cacheable() && r.Config.Model == nil
}

// MarshalWire encodes the request for the peer protocol. Non-wireable
// requests are rejected with an Invalid-class error; route them locally
// instead.
func (r Request) MarshalWire() ([]byte, error) {
	if !r.Wireable() {
		return nil, nwerr.Invalidf("engine: request kind %q is not wireable", string(r.Kind))
	}
	return json.Marshal(wireRequest{
		Kind:       r.Kind,
		Config:     r.Config,
		Experiment: r.Experiment,
		Grid:       r.Grid,
		Objective:  r.Objective,
		Types:      r.Types,
		Lengths:    r.Lengths,
		Count:      r.Count,
		Seed:       r.Seed,
		Trials:     r.Trials,
		Lo:         r.Lo,
		Hi:         r.Hi,
	})
}

// UnmarshalWire decodes a peer-protocol request. The result still goes
// through Engine.Do's validation on the serving node; this only rejects
// bytes that are not the wire form at all.
func UnmarshalWire(data []byte) (Request, error) {
	var w wireRequest
	if err := json.Unmarshal(data, &w); err != nil {
		return Request{}, nwerr.Invalidf("engine: bad wire request: %w", err)
	}
	return Request{
		Kind:       w.Kind,
		Config:     w.Config,
		Experiment: w.Experiment,
		Grid:       w.Grid,
		Objective:  w.Objective,
		Types:      w.Types,
		Lengths:    w.Lengths,
		Count:      w.Count,
		Seed:       w.Seed,
		Trials:     w.Trials,
		Lo:         w.Lo,
		Hi:         w.Hi,
	}, nil
}
