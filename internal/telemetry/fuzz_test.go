package telemetry

import "testing"

// FuzzParseJSONL feeds arbitrary bytes to ParseJSONL: it must return a
// bundle or an error, never panic, and any bundle it returns must export
// as JSONL and CSV.
func FuzzParseJSONL(f *testing.F) {
	f.Add(sampleBundle().ExportJSONL())
	f.Add(buildMetricsBundle().ExportJSONL())
	f.Add([]byte(`{"type":"meta","schema":"bogus"}`))
	f.Add([]byte(`{"type":"event","conn":"c","kind":"no-such-kind","seq":-1}` + "\n{"))
	f.Add([]byte(`{"type":"sample","conn":""}` + "\n" + `{"type":"future-line"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ParseJSONL(data)
		if err != nil {
			return
		}
		b.ExportJSONL()
		b.ExportCSV()
	})
}
