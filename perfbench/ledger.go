package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ledgerDir holds one file per (binary, workload, seed, window) recording
// the outcome digest the first run of that binary produced.
const ledgerDir = ".bench_build/digests"

// checkLedger compares digest with the one an earlier run of this same
// binary recorded in dir for the same workload, seed and window, and
// records it when there is none. Two runs of identical code and inputs
// must agree.
func checkLedger(dir, workload string, seed uint64, seconds int, digest string) error {
	bin, err := binaryHash()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d-%ds", bin, workload, seed, seconds))
	if prev, err := os.ReadFile(path); err == nil {
		if p := strings.TrimSpace(string(prev)); p != digest {
			return fmt.Errorf("digest %s differs from %s recorded by an earlier run of this binary", digest, p)
		}
		return nil
	} else if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// binaryHash identifies the running executable by content.
func binaryHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hashing %s: %w", exe, err)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8]), nil
}
