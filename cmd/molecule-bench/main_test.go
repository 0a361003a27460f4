package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchJSON is every scenario `make benchjson` writes to a BENCH file.
var benchJSON = map[string]bool{"nipc": true, "soak": true, "cluster": true, "coldstart": true}

// TestScenariosWriteEnvelope runs every scenario through the table main
// uses and checks that each artifact is the one snapshot envelope: exactly
// the scenario's name and a result. A BENCH scenario runs a second time
// and must write the same bytes.
func TestScenariosWriteEnvelope(t *testing.T) {
	dir := t.TempDir()
	for _, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			path := filepath.Join(dir, s.name+".json")
			if err := runScenario(s.name, io.Discard, path); err != nil {
				t.Fatal(err)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap map[string]json.RawMessage
			if err := json.Unmarshal(buf, &snap); err != nil {
				t.Fatalf("artifact is not JSON: %v", err)
			}
			keys := make([]string, 0, len(snap))
			for k := range snap {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if got := strings.Join(keys, ","); got != "result,scenario" {
				t.Errorf("envelope keys = %s, want result,scenario", got)
			}
			if got := string(snap["scenario"]); got != `"`+s.name+`"` {
				t.Errorf("scenario = %s, want %q", got, s.name)
			}
			if r := snap["result"]; len(r) == 0 || string(r) == "null" {
				t.Error("artifact has no result")
			}
			if !benchJSON[s.name] {
				return
			}
			again := filepath.Join(dir, s.name+"-again.json")
			if err := runScenario(s.name, io.Discard, again); err != nil {
				t.Fatal(err)
			}
			if buf2, err := os.ReadFile(again); err != nil {
				t.Fatal(err)
			} else if !bytes.Equal(buf, buf2) {
				t.Errorf("second run wrote different bytes (%d vs %d)", len(buf2), len(buf))
			}
		})
	}
}

// TestUnknownScenario: a bad name is an error that lists every valid one.
func TestUnknownScenario(t *testing.T) {
	err := runScenario("no-such-scenario", io.Discard, "")
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	for _, s := range scenarios {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("error %q does not name scenario %q", err, s.name)
		}
	}
}
