package fabric

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestDecodeStrictRejections(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"empty", ""},
		{"not json", "not json"},
		{"unknown field", `{"workerID":"w1","bogus":1}`},
		{"trailing data", `{"workerID":"w1"} {"again":true}`},
		{"wrong type", `{"workerID":42}`},
		{"duplicate via array", `[1,2,3]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeLeaseRequest([]byte(tc.data)); !errors.Is(err, ErrProtocol) {
				t.Errorf("DecodeLeaseRequest(%q) err = %v, want ErrProtocol", tc.data, err)
			}
		})
	}
	if _, err := DecodeLeaseRequest([]byte(strings.Repeat(" ", maxMessageBytes+1))); !errors.Is(err, ErrProtocol) {
		t.Error("oversized message accepted")
	}
}

func TestDecodeValidators(t *testing.T) {
	if _, err := DecodeRegisterRequest([]byte(`{"host":"h","pid":-1}`)); !errors.Is(err, ErrProtocol) {
		t.Error("negative pid accepted")
	}
	if m, err := DecodeRegisterRequest([]byte(`{}`)); err != nil || m.PID != 0 {
		t.Errorf("empty register rejected: %v", err)
	}
	if _, err := DecodeLeaseRequest([]byte(`{}`)); !errors.Is(err, ErrProtocol) {
		t.Error("empty workerID accepted")
	}
	if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","campaign":"c1","chunk":-2}`)); !errors.Is(err, ErrProtocol) {
		t.Error("negative chunk accepted")
	}
	for _, field := range []string{`"done":1`, `"snapshot":{"seq":3}`} {
		if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","campaign":"c1",` + field + `}`)); !errors.Is(err, ErrProtocol) {
			t.Errorf("v2 report field %s accepted", field)
		}
	}
	if _, err := DecodeReportRequest([]byte(`{"workerID":"w1","chunk":3,"gen":2}`)); !errors.Is(err, ErrProtocol) {
		t.Error("report without campaign accepted")
	}
	if m, err := DecodeReportRequest([]byte(`{"workerID":"w1","campaign":"c1","chunk":3,"gen":2}`)); err != nil || m.Gen != 2 {
		t.Errorf("valid report rejected: %v", err)
	}
	if _, err := DecodeLeaseRequest([]byte(`{"workerID":"w1","known":["c1",""]}`)); !errors.Is(err, ErrProtocol) {
		t.Error("empty known entry accepted")
	}

	complete := func(body string) error {
		_, err := DecodeCompleteRequest([]byte(body))
		return err
	}
	if err := complete(`{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":"0,b\n"}]}`); err != nil {
		t.Errorf("valid complete rejected: %v", err)
	}
	for name, body := range map[string]string{
		"row without line":     `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":""}]}`,
		"row without newline":  `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"line":"0,b"}]}`,
		"row with v2 fields":   `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":0,"fields":["0","b"]}]}`,
		"row negative nr":      `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"rows":[{"nr":-1,"line":"-1,b\n"}]}`,
		"failure empty record": `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"failures":[{"nr":0,"record":null}]}`,
		"failure negative nr":  `{"workerID":"w1","campaign":"c1","chunk":0,"gen":1,"failures":[{"nr":-3,"record":{}}]}`,
		"missing workerID":     `{"campaign":"c1","chunk":0,"gen":1}`,
		"missing campaign":     `{"workerID":"w1","chunk":0,"gen":1,"rows":[{"nr":0,"line":"0,b\n"}]}`,
	} {
		if err := complete(body); !errors.Is(err, ErrProtocol) {
			t.Errorf("%s accepted (err=%v)", name, err)
		}
	}
}

func TestDecodeCampaignMessages(t *testing.T) {
	if _, err := DecodeSubmitRequest([]byte(`{"config":{"campaign":{}}}`)); err != nil {
		t.Errorf("valid submit rejected: %v", err)
	}
	for name, body := range map[string]string{
		"no config":        `{"name":"x"}`,
		"config not json":  `{"config":"nope"}`,
		"config array":     `{"config":[1,2]}`,
		"unknown field":    `{"config":{},"bogus":1}`,
		"name with slash":  `{"name":"a/b","config":{}}`,
		"name with ctrl":   `{"name":"a\tb","config":{}}`,
		"name too long":    `{"name":"` + strings.Repeat("x", maxCampaignName+1) + `","config":{}}`,
		"trailing garbage": `{"config":{}} {}`,
	} {
		if _, err := DecodeSubmitRequest([]byte(body)); !errors.Is(err, ErrProtocol) {
			t.Errorf("submit %s accepted (err=%v)", name, err)
		}
	}
	if _, err := DecodeCancelRequest([]byte(`{}`)); !errors.Is(err, ErrProtocol) {
		t.Error("cancel without campaignID accepted")
	}
	if m, err := DecodeCancelRequest([]byte(`{"campaignID":"c2"}`)); err != nil || m.CampaignID != "c2" {
		t.Errorf("valid cancel rejected: %v", err)
	}
}

func TestProtocolRoundTrips(t *testing.T) {
	reqs := []any{
		RegisterRequest{Host: "node1", PID: 1234},
		LeaseRequest{WorkerID: "w1"},
		ReportRequest{WorkerID: "w1", Campaign: "c1", Chunk: 3, Gen: 7},
		CompleteRequest{
			WorkerID: "w2", Campaign: "c1", Chunk: 1, Gen: 2,
			Rows:     []ResultRow{{Nr: 4, Line: "4,\"x,y\"\n"}},
			Failures: []FailureRow{{Nr: 5, Record: json.RawMessage(`{"expNr":5}`)}},
		},
	}
	for _, req := range reqs {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var decErr error
		switch req.(type) {
		case RegisterRequest:
			_, decErr = DecodeRegisterRequest(data)
		case LeaseRequest:
			_, decErr = DecodeLeaseRequest(data)
		case ReportRequest:
			_, decErr = DecodeReportRequest(data)
		case CompleteRequest:
			var m CompleteRequest
			m, decErr = DecodeCompleteRequest(data)
			if decErr == nil {
				re, err := json.Marshal(m)
				if err != nil || string(re) != string(data) {
					t.Errorf("CompleteRequest round trip: %s != %s (%v)", re, data, err)
				}
			}
		}
		if decErr != nil {
			t.Errorf("round trip of %T: %v", req, decErr)
		}
	}
}
