// Package jsonw holds the reflection-free JSON append primitives behind
// the CAD View wire encoder. Each one writes exactly the bytes
// encoding/json writes for the same Go value under its defaults (HTML
// escaping on), so a hand-assembled document is byte-identical to
// json.Marshal over the equivalent tree.
package jsonw

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// safe[b] reports whether the ASCII byte b is written verbatim inside a
// JSON string: every printable byte except '"', '\\' and the HTML
// characters '<', '>' and '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()

// AppendString appends s as a quoted JSON string, escaped as
// encoding/json escapes it by default: '"' and '\\' backslashed; \b, \f,
// \n, \r and \t in their short forms; other control bytes, '<', '>' and
// '&' as \u00XX; U+2028 and U+2029 as \u2028 and \u2029; and each byte
// of invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// representation that round-trips, in 'f' form except 'e' form for
// magnitudes outside [1e-6, 1e21), with a one-digit negative exponent
// written as e-7 rather than e-07. Integral values below 2^53 in
// magnitude (other than -0) take a strconv.AppendInt fast path with the
// same output. NaN and ±Inf have no JSON form and return an error, with
// dst unchanged.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	// A single digit, the common frequency count, is checked first.
	// Below the bits of 10.0 are exactly the floats in [+0, 10): the
	// sign bit rules out -0 and the negatives, the order NaN and ±Inf.
	if math.Float64bits(f) < 0x4024000000000000 {
		if d := byte(f); float64(d) == f {
			return append(dst, '0'+d), nil
		}
	}
	// The range check keeps the conversion exact; NaN and ±Inf fail it.
	if -1<<53 < f && f < 1<<53 {
		if i := int64(f); float64(i) == f && (i != 0 || !math.Signbit(f)) {
			return strconv.AppendInt(dst, i, 10), nil
		}
	} else if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("jsonw: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
