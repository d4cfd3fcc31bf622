package errs

import "nwdec/internal/nwerr"

// WrapClassed formats an error cause into an nwerr constructor, which
// hands its format to fmt.Errorf, without wrapping it.
func WrapClassed(err error) error {
	return nwerr.Invalidf("decode: %v", err) // want `errcheck: nwerr.Invalidf formats an error cause without %w`
}

// WrapClassedOK wraps its cause, which is fine.
func WrapClassedOK(err error) error {
	return nwerr.NotFoundf("load: %w", err)
}
