package engine

import (
	"encoding/json"

	"nwdec/internal/nwerr"
)

// MarshalWire encodes the request for the peer protocol: the JSON form
// of Request itself, which carries every identity field and drops
// Workers. Both ends of the protocol run the same binary, so the
// encoding only needs to be a faithful round trip, not a versioned
// format. Two kinds of request cannot make that trip and are rejected:
// one with a custom threshold model (Config.Model is an interface, and
// only in-process callers can supply one), with an Invalid-class error,
// and one carrying a non-finite number, which JSON cannot encode. A
// routing layer computes such requests where they arrived.
func (r Request) MarshalWire() ([]byte, error) {
	if r.Config.Model != nil {
		return nil, nwerr.Invalidf("engine: a request with a custom threshold model cannot cross the wire")
	}
	return json.Marshal(r)
}

// UnmarshalWire decodes a peer-protocol request. Bytes that are not the
// wire form are Invalid-class; everything else still goes through
// Engine.Do's validation on the serving node. JSON cannot decode into
// the Config.Model interface, so a decoded request never carries a
// custom model and always re-marshals.
func UnmarshalWire(data []byte) (Request, error) {
	var r Request
	if err := json.Unmarshal(data, &r); err != nil {
		return Request{}, nwerr.Invalidf("engine: bad wire request: %w", err)
	}
	return r, nil
}
