package core

import "testing"

// BenchmarkCADViewJSON compares the CAD View wire encoder with the
// reflection-based oracle it replaced, on the Table-1 view and the
// 200-value Zipf view. Both start from an empty buffer, as MarshalJSON
// and the /cad handler do, so allocs/op counts buffer growth only.
func BenchmarkCADViewJSON(b *testing.B) {
	table1, zipf := wireViews(b)
	for _, c := range []struct {
		name string
		view *CADView
	}{{"table1", table1}, {"zipf", zipf}} {
		want, err := marshalOracle(c.view)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/oracle", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(want)))
			for i := 0; i < b.N; i++ {
				if _, err := marshalOracle(c.view); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/append", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(want)))
			for i := 0; i < b.N; i++ {
				if _, err := c.view.AppendJSON(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
