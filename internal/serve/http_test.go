package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func httpServer(t *testing.T, r Runner, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	s := newTestServer(t, r, opts...)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fields map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
		fields = nil // list endpoints return arrays; callers re-request those
	}
	return resp, fields
}

func fieldString(t *testing.T, fields map[string]json.RawMessage, key string) string {
	t.Helper()
	var s string
	if raw, ok := fields[key]; ok {
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("field %s: %v", key, err)
		}
	}
	return s
}

// TestHTTPLifecycle drives submit → status → result → list over the
// wire against the gate runner.
func TestHTTPLifecycle(t *testing.T) {
	g := newGateRunner()
	_, ts := httpServer(t, g)

	resp, fields := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "alice", Items: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := fieldString(t, fields, "id")
	if id == "" || fieldString(t, fields, "state") != "queued" {
		t.Fatalf("submit body = %v", fields)
	}
	g.waitStarted(t)

	resp, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result while running: status = %d, want 409", resp.StatusCode)
	}

	g.release <- nil
	deadline := testDeadline(t)
	for {
		resp, fields = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if fieldString(t, fields, "state") == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", fieldString(t, fields, "state"))
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, fields = doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", nil)
	if resp.StatusCode != http.StatusOK || fields["outcome"] == nil {
		t.Fatalf("result status = %d, body = %v", resp.StatusCode, fields)
	}

	listResp, err := http.Get(ts.URL + "/v1/jobs?tenant=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var infos []Info
	if err := json.NewDecoder(listResp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != id {
		t.Fatalf("list = %+v", infos)
	}
}

// TestHTTPCancel cancels a running job over the wire.
func TestHTTPCancel(t *testing.T) {
	g := newGateRunner()
	s, ts := httpServer(t, g)
	resp, fields := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "bob"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := fieldString(t, fields, "id")
	g.waitStarted(t)
	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}
	waitState(t, s, id, StateCancelled)
	resp, _ = doJSON(t, "DELETE", ts.URL+"/v1/jobs/"+id, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of terminal job: status = %d, want 409", resp.StatusCode)
	}
}

// TestHTTPErrorMapping checks each error class lands on its documented
// status code.
func TestHTTPErrorMapping(t *testing.T) {
	g := newGateRunner()
	_, ts := httpServer(t, g, WithMaxRunning(1), WithTenantQuota(1))

	resp, fields := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "UPPER"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad tenant: status = %d, want 400", resp.StatusCode)
	}
	if fieldString(t, fields, "error") == "" {
		t.Error("error body missing")
	}

	resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs", map[string]any{"tenant": "x", "bogus": 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}

	// A body is one spec: a second value or junk after it is refused.
	for _, body := range []string{`{"tenant":"a"}{"tenant":"b"}`, `{"tenant":"a"} junk`} {
		r, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("trailing data %q: status = %d, want 400", body, r.StatusCode)
		}
	}

	resp, _ = doJSON(t, "GET", ts.URL+"/v1/jobs/j-404", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id: status = %d, want 404", resp.StatusCode)
	}

	// Fill the quota, then overflow it: 429 with Retry-After.
	if resp, _ = doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "quota"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first job: status = %d", resp.StatusCode)
	}
	g.waitStarted(t)
	resp, fields = doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "quota"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status = %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry != 1 {
		t.Errorf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
}

// TestHTTPMetricsAndHealthz: both observability endpoints serve JSON
// reflecting live state.
func TestHTTPMetricsAndHealthz(t *testing.T) {
	g := newGateRunner()
	_, ts := httpServer(t, g)
	if resp, _ := doJSON(t, "POST", ts.URL+"/v1/jobs", JobSpec{Tenant: "carol"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	g.waitStarted(t)

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.tenant.carol.admitted"] != 1 {
		t.Errorf("metrics endpoint counters = %v", snap.Counters)
	}

	resp2, hfields := doJSON(t, "GET", ts.URL+"/v1/healthz", nil)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp2.StatusCode)
	}
	var running int
	if err := json.Unmarshal(hfields["running"], &running); err != nil || running != 1 {
		t.Errorf("healthz running = %s", hfields["running"])
	}
	var free int
	if err := json.Unmarshal(hfields["free_devices"], &free); err != nil || free != -1 {
		t.Errorf("healthz free_devices = %s (no pool wired, want -1)", hfields["free_devices"])
	}
}

// TestHTTPMethodDiscipline: wrong verbs 404/405 under the Go 1.22 mux.
func TestHTTPMethodDiscipline(t *testing.T) {
	_, ts := httpServer(t, newGateRunner())
	resp, err := http.Get(ts.URL + "/v1/nothing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route: status = %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/jobs", bytes.NewBufferString("{}"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/jobs: status = %d, want 405", resp.StatusCode)
	}
}
