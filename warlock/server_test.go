package warlock_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/config"
	"repro/warlock"
)

// TestEmbeddedServer exercises the public Server API the way an
// embedding application would: mount it, advise twice, read metrics.
func TestEmbeddedServer(t *testing.T) {
	srv := warlock.NewServer(warlock.ServerConfig{CacheSize: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var doc bytes.Buffer
	if err := config.FromAPB1(300_000, 8).Encode(&doc); err != nil {
		t.Fatal(err)
	}

	var first []byte
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(doc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advise %d: %d %s", i, resp.StatusCode, b)
		}
		if i == 0 {
			first = b
		} else if !bytes.Equal(first, b) {
			t.Fatal("cached advisory not byte-identical through public API")
		}
	}

	var parsed warlock.AdviseResponse
	if err := json.Unmarshal(first, &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != "APB-1" || len(parsed.Candidates) == 0 {
		t.Fatalf("unexpected advisory: %+v", parsed)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"warlockd_requests_total 2\n",
		"warlockd_evaluations_total 1\n",
		"warlockd_cache_hits_total 1\n",
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("metrics missing %q:\n%s", want, b)
		}
	}
}
