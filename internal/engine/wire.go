package engine

import (
	"encoding/json"

	"nwdec/internal/nwerr"
)

// Wireable reports whether the request can cross the peer protocol: its
// result must be shareable (cacheable kind) and its identity fields must
// survive a JSON round trip. A custom threshold model is the one
// identity field that cannot — Config.Model is an interface, and only
// in-process callers can supply one — so such requests always compute on
// the node that received them.
func (r Request) Wireable() bool {
	return r.Kind.cacheable() && r.Config.Model == nil
}

// MarshalWire encodes the request for the peer protocol: the JSON form
// of Request itself, which carries every identity field and drops
// Workers. Both ends of the protocol run the same binary, so the
// encoding only needs to be a faithful round trip, not a versioned
// format. Non-wireable requests are rejected with an Invalid-class
// error; route them locally instead.
func (r Request) MarshalWire() ([]byte, error) {
	if !r.Wireable() {
		return nil, errNotWireable(r.Kind)
	}
	return json.Marshal(r)
}

// UnmarshalWire decodes a peer-protocol request. Bytes that are not the
// wire form, and requests that could never have been sent (non-wireable
// kinds), are Invalid-class; everything else still goes through
// Engine.Do's validation on the serving node.
func UnmarshalWire(data []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(data, &r); err != nil {
		return Request{}, nwerr.Invalidf("engine: bad wire request: %w", err)
	}
	if !r.Wireable() {
		return Request{}, errNotWireable(r.Kind)
	}
	return r, nil
}

// errNotWireable refuses a request that cannot cross the peer protocol,
// on either end.
func errNotWireable(k Kind) error {
	return nwerr.Invalidf("engine: request kind %q is not wireable", string(k))
}
