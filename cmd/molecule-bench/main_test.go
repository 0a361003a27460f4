package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosWriteEnvelope runs every scenario through the table main
// uses and checks that each artifact is the one snapshot envelope: the
// scenario's name, a host block, and a result.
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
			var snap struct {
				Scenario string          `json:"scenario"`
				Host     map[string]any  `json:"host"`
				Result   json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(buf, &snap); err != nil {
				t.Fatalf("artifact is not JSON: %v", err)
			}
			if snap.Scenario != s.name {
				t.Errorf("scenario = %q, want %q", snap.Scenario, s.name)
			}
			if len(snap.Host) == 0 {
				t.Error("artifact has no host block")
			}
			if len(snap.Result) == 0 || string(snap.Result) == "null" {
				t.Error("artifact has no result")
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
