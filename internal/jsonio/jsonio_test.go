package jsonio

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodeOne(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{
		{`{"a":1}`, true},
		{" \n{\"a\":1}\t\n ", true},
		{`{"a":1}{"a":2}`, false},
		{`{"a":1} {"a":2}`, false},
		{`{"a":1} not json`, false},
		{`{"a":1}}`, false},
		{`{"a":1},`, false},
		{`{"a":1} 0`, false},
		{`{"a":`, false},
		{``, false},
	} {
		var v struct{ A int }
		err := DecodeOne(json.NewDecoder(strings.NewReader(tc.in)), &v)
		if (err == nil) != tc.ok {
			t.Errorf("DecodeOne(%q) = %v, want ok %v", tc.in, err, tc.ok)
		}
		if err == nil && v.A != 1 {
			t.Errorf("DecodeOne(%q) decoded %+v", tc.in, v)
		}
	}
}
