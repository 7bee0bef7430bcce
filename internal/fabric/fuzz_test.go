package fabric

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzLeaseProtocolDecode drives every protocol decoder with arbitrary
// bytes: none may panic, and anything they accept must be internally
// consistent (validator invariants hold) and re-encodable. The decoders
// share decodeStrict, so this also fuzzes the unknown-field, trailing-
// data and size-cap rejection paths the coordinator's HTTP surface
// depends on.
func FuzzLeaseProtocolDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workerID":"w1"}`))
	f.Add([]byte(`{"host":"node1","pid":4321}`))
	f.Add([]byte(`{"workerID":"w1","campaign":"c1","chunk":2,"gen":9}`))
	f.Add([]byte(`{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":"0,delay,0.3,2.000,1.000,benign,0.0000,0.0000,0,\n"}]}`))
	f.Add([]byte(`{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":"0,delay"}]}`))
	f.Add([]byte(`{"workerID":"w1","chunk":0,"gen":1,"failures":[{"nr":3,"record":{"expNr":3,"class":"panic"}}]}`))
	f.Add([]byte(`{"workerID":"w1","chunk":0,"gen":1} trailing`))
	f.Add([]byte(`[{"nr":-1}]`))
	f.Add([]byte(`{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":""}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeRegisterRequest(data); err == nil {
			if m.PID < 0 {
				t.Fatalf("accepted register with negative pid: %+v", m)
			}
		}
		if m, err := DecodeLeaseRequest(data); err == nil {
			if m.WorkerID == "" {
				t.Fatalf("accepted lease request without workerID: %+v", m)
			}
		}
		if m, err := DecodeReportRequest(data); err == nil {
			if m.WorkerID == "" || m.Campaign == "" || m.Chunk < 0 {
				t.Fatalf("accepted invalid report: %+v", m)
			}
		}
		if m, err := DecodeCompleteRequest(data); err == nil {
			if m.WorkerID == "" || m.Chunk < 0 {
				t.Fatalf("accepted invalid complete: %+v", m)
			}
			for _, row := range m.Rows {
				if row.Nr < 0 || !strings.HasSuffix(row.Line, "\n") {
					t.Fatalf("accepted invalid row: %+v", row)
				}
			}
			for _, fr := range m.Failures {
				trimmed := bytes.TrimSpace(fr.Record)
				if fr.Nr < 0 || len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(trimmed) {
					t.Fatalf("accepted invalid failure row: %+v", fr)
				}
			}
			if _, err := json.Marshal(m); err != nil {
				t.Fatalf("accepted complete does not re-encode: %v", err)
			}
		}
	})
}

// FuzzCampaignSubmitDecode drives the campaign control-plane decoders
// (submit, cancel) with arbitrary bytes: none may panic, and anything
// accepted must satisfy the validator invariants — the config is a JSON
// object, the name is bounded and free of path separators and control
// characters, the cancel target is named. These messages share
// decodeStrict with the lease protocol, so unknown fields, trailing
// data and the size cap are exercised here too.
func FuzzCampaignSubmitDecode(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"config":{}}`))
	f.Add([]byte(`{"name":"delay-sweep","config":{"campaign":{"lower":0,"upper":1,"step":1}}}`))
	f.Add([]byte(`{"name":"a/b","config":{}}`))
	f.Add([]byte(`{"config":{"matrix":{"scenarios":["platoon"],"attacks":["dos"]}}}`))
	f.Add([]byte(`{"config":{}} {"config":{}}`))
	f.Add([]byte(`{"config":[1,2,3]}`))
	f.Add([]byte(`{"campaignID":"c1"}`))
	f.Add([]byte(`{"campaignID":""}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeSubmitRequest(data); err == nil {
			trimmed := bytes.TrimSpace(m.Config)
			if len(trimmed) == 0 || trimmed[0] != '{' || !json.Valid(trimmed) {
				t.Fatalf("accepted submit without a JSON-object config: %+v", m)
			}
			if len(m.Name) > maxCampaignName {
				t.Fatalf("accepted overlong campaign name (%d bytes)", len(m.Name))
			}
			for _, r := range m.Name {
				if r < 0x20 || r == 0x7f || r == '/' || r == '\\' {
					t.Fatalf("accepted campaign name with %q: %q", r, m.Name)
				}
			}
			if _, err := json.Marshal(m); err != nil {
				t.Fatalf("accepted submit does not re-encode: %v", err)
			}
		}
		if m, err := DecodeCancelRequest(data); err == nil {
			if m.CampaignID == "" {
				t.Fatalf("accepted cancel without campaignID: %+v", m)
			}
		}
	})
}
