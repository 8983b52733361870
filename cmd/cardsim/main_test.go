package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownPresetListsNames pins the operator-typo path: an unknown
// -preset must name every registered preset and exit 1, not fail
// opaquely.
func TestUnknownPresetListsNames(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "no-such-preset"}, &out, &errw)
	if code != 1 {
		t.Fatalf("run(-preset no-such-preset) = exit %d, want 1\nstderr: %s", code, errw.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, `unknown -preset "no-such-preset"`) {
		t.Errorf("stderr does not name the bad preset:\n%s", msg)
	}
	for _, want := range []string{"citywide-rwp-1k", "citywide-rwp-100k", "metro-rwp-1m", "dense-sensor-field"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr does not list registered preset %q:\n%s", want, msg)
		}
	}
}

// TestUnknownSchemeListsNames pins the same contract for -scheme.
func TestUnknownSchemeListsNames(t *testing.T) {
	var out, errw strings.Builder
	code := run([]string{"-preset", "citywide-rwp-1k", "-scheme", "gossip"}, &out, &errw)
	if code != 1 {
		t.Fatalf("run(-scheme gossip) = exit %d, want 1\nstderr: %s", code, errw.String())
	}
	msg := errw.String()
	if !strings.Contains(msg, `unknown -scheme "gossip"`) {
		t.Errorf("stderr does not name the bad scheme:\n%s", msg)
	}
	for _, want := range []string{"card", "flood", "bordercast", "rendezvous"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr does not list registered scheme %q:\n%s", want, msg)
		}
	}
}

// TestBadFlagExitsTwo pins that malformed invocations (as opposed to
// unknown registry names) keep the usage exit code.
func TestBadFlagExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-no-such-flag"}, &out, &errw); code != 2 {
		t.Fatalf("run(-no-such-flag) = exit %d, want 2", code)
	}
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("run() with no args = exit %d, want 2", code)
	}
}

// TestListAndPresetsExitZero smoke-tests the two listing paths through
// the same entry point.
func TestListAndPresetsExitZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-presets"}, &out, &errw); code != 0 {
		t.Fatalf("run(-presets) = exit %d, want 0\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "metro-rwp-1m") {
		t.Errorf("-presets output does not list metro-rwp-1m:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("run(-list) = exit %d, want 0\nstderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "fig3") {
		t.Errorf("-list output does not include fig3:\n%s", out.String())
	}
}

// TestNonFiniteOverridesExitOne pins that NaN and ±Inf numeric overrides
// are rejected with exit 1 before anything runs. NaN passes every range
// comparison, so without the check -loss NaN would silently run the
// preset's own loss and -horizon Inf would never finish.
func TestNonFiniteOverridesExitOne(t *testing.T) {
	for _, tc := range [][]string{
		{"-scale", "NaN"},
		{"-loss", "NaN"},
		{"-rangespread", "NaN"},
		{"-rangespread", "Inf"},
		{"-zipf", "NaN"},
		{"-qps", "NaN"},
		{"-qps", "+Inf"},
		{"-horizon", "Inf"},
		{"-tx", "-Inf"},
	} {
		var out, errw strings.Builder
		args := append([]string{"-preset", "citywide-rwp-1k"}, tc...)
		if code := run(args, &out, &errw); code != 1 {
			t.Errorf("run(%v) = exit %d, want 1\nstderr: %s", tc, code, errw.String())
			continue
		}
		if want := tc[0] + " must be a finite number"; !strings.Contains(errw.String(), want) {
			t.Errorf("run(%v): stderr %q does not say %q", tc, errw.String(), want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) ran anyway:\n%s", tc, out.String())
		}
	}
}

// TestNonFiniteTraceExitOne pins the same for a -trace file: a NaN
// coordinate must fail the parse with exit 1, not run as a node that
// links to nobody.
func TestNonFiniteTraceExitOne(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nan.tcl")
	src := "$node_(0) set X_ 10\n$node_(0) set Y_ 10\n$node_(1) set X_ NaN\n$node_(1) set Y_ 20\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw strings.Builder
	if code := run([]string{"-trace", path, "-tx", "50"}, &out, &errw); code != 1 {
		t.Fatalf("run(-trace nan.tcl) = exit %d, want 1\nstderr: %s", code, errw.String())
	}
	if want := "trace line 3:"; !strings.Contains(errw.String(), want) {
		t.Errorf("stderr %q does not say %q", errw.String(), want)
	}
	if out.Len() != 0 {
		t.Errorf("run(-trace nan.tcl) ran anyway:\n%s", out.String())
	}
}
