// Package jsonio decodes documents that must hold exactly one JSON value.
package jsonio

import (
	"encoding/json"
	"errors"
	"io"
)

// DecodeOne decodes the single JSON value dec reads into v. A json.Decoder
// alone stops after the first value and ignores the rest; here anything
// after it but whitespace is an error.
func DecodeOne(dec *json.Decoder, v any) error {
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("unexpected data after the JSON value")
	default:
		return err
	}
}
