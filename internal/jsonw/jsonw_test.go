package jsonw

import (
	"encoding/json"
	"math"
	"testing"
)

// oracleString and oracleFloat are what encoding/json writes for the
// same value.
func oracleString(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func checkString(t *testing.T, s string) {
	t.Helper()
	prefix := []byte("x")
	got := AppendString(prefix, s)
	if want := "x" + oracleString(t, s); string(got) != want {
		t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
	}
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := AppendFloat([]byte("x"), f)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendFloat(%v) error = %v, encoding/json error = %v", f, err, wantErr)
	}
	if err != nil {
		if string(got) != "x" {
			t.Errorf("AppendFloat(%v) failed but changed dst to %q", f, got)
		}
		return
	}
	if string(got) != "x"+string(want) {
		t.Errorf("AppendFloat(%v) = %s, want x%s", f, got, want)
	}
}

func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii", `"quoted" and \back\slashed`,
		"<script>&amp;</script>", "\b\f\n\r\t", "\x00\x01\x1f\x7f",
		"line\u2028sep\u2029para", "h\u00e9llo w\u00f6rld \u2713 \u65e5\u672c", "emoji \U0001f600",
		"bad \xff utf8 \xc3", "\xed\xa0\x80 surrogate", "trailing \xe2\x80",
		"\xe2\x80\xa8\xe2\x80\xa9", "tab\tin the middle of a long run of text",
	} {
		checkString(t, s)
	}
	// Every single byte, alone and between safe text.
	for b := 0; b < 256; b++ {
		checkString(t, string([]byte{byte(b)}))
		checkString(t, "a"+string([]byte{byte(b)})+"z")
	}
}

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 0.5, 1.5, 123456789.5,
		1e-6, 1e-7, 9.99e-7, -1e-7, 1e20, 1e21, 1e22, -1e21, 1.5e300, 5e-324,
		1 << 53, 1<<53 + 1, -(1 << 53), 1<<53 - 1, -(1<<53 - 1), 1 << 62, 1 << 63,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 12345678901234567890,
		0.000001, 0.00001234, 1.0 / 3, 2.0 / 3, 100, 1e15, 1e16, 1e17,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		checkFloat(t, f)
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "abc", "<>&", "\u2028", "\xff", "\"\\\b\f\x01"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkString(t, s) })
}

func FuzzAppendFloat(f *testing.F) {
	for _, x := range []float64{0, 0.1, 1e-7, 1e21, 1<<53 + 1, 123456789.5} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) { checkFloat(t, x) })
}
