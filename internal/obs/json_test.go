package obs

import (
	"encoding/json"
	"testing"
	"unicode/utf8"
)

// appendJSONStringLoop is the byte-at-a-time escape loop appendJSONString
// runs after its no-escape prefix copy: the reference the fast path must
// reproduce byte for byte.
func appendJSONStringLoop(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\t':
			dst = append(dst, '\\', 't')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c < 0x20:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// checkJSONString requires appendJSONString(s) to equal the escape loop
// (appended after a non-empty prefix, so a slicing slip shows) and, for
// valid UTF-8, to decode back to s through encoding/json. Invalid UTF-8
// passes through raw in both encoders' inputs, but encoding/json decodes
// it to U+FFFD, so only valid strings can round-trip.
func checkJSONString(t *testing.T, s string) {
	t.Helper()
	prefix := []byte("x:")
	got := appendJSONString(append([]byte(nil), prefix...), s)
	want := appendJSONStringLoop(append([]byte(nil), prefix...), s)
	if string(got) != string(want) {
		t.Fatalf("appendJSONString(%q) = %s, escape loop %s", s, got, want)
	}
	if !utf8.ValidString(s) {
		return
	}
	var back string
	if err := json.Unmarshal(got[len(prefix):], &back); err != nil {
		t.Fatalf("appendJSONString(%q) = %s: not a JSON string: %v", s, got, err)
	}
	if back != s {
		t.Fatalf("appendJSONString(%q) round-tripped to %q", s, back)
	}
}

// TestAppendJSONStringEveryByte runs every byte value alone, at the
// start, middle and end of a clean string, and next to another escape,
// plus multi-byte UTF-8 around escapes.
func TestAppendJSONStringEveryByte(t *testing.T) {
	for c := 0; c < 256; c++ {
		b := string([]byte{byte(c)})
		for _, s := range []string{
			b,
			b + "tenant",
			"fleet." + b + "deferred",
			"node-" + b,
			b + "\n" + b,
			"\"" + b + "\\",
		} {
			checkJSONString(t, s)
		}
	}
	for _, s := range []string{
		"",
		"scale-up → 8 cores",
		"µs\t→é世界😀",
		"😀\"😀\\😀\n",
		"  ",
		"\x7f\x1f\x00",
		"\xff\xfe invalid \xc3",
	} {
		checkJSONString(t, s)
	}
}

// FuzzAppendJSONString checks the fast path against the escape loop and
// the encoding/json round trip on arbitrary strings (seed corpus in
// testdata/fuzz/FuzzAppendJSONString).
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"fleet.deferred", "a \"quoted\"\nline\twith → unicode", "\x00\x1f\x7f\xff", ""} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkJSONString(t, s)
	})
}
