package runner

// This file holds the per-campaign file layout and resume-prefix
// helpers of the multi-campaign fabric service. The service keeps every
// campaign's artifacts side by side in one directory; these helpers are
// the single source of truth for that naming, so the service,
// `comfase serve -dir -resume` and operators reading the directory all
// agree on which file belongs to which campaign.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"comfase/internal/core"
)

// CampaignFiles names one campaign's on-disk artifacts inside a service
// directory. Results and Quarantine are the merged grid-ordered streams
// (byte-identical to a sequential run); Config is the submitted raw
// config JSON (the resume source of truth); Status is the atomically
// rewritten per-campaign status document.
type CampaignFiles struct {
	ID         string
	Config     string
	Results    string
	Quarantine string
	Status     string
}

// CampaignFilesIn returns campaign id's file layout under dir.
func CampaignFilesIn(dir, id string) CampaignFiles {
	return CampaignFiles{
		ID:         id,
		Config:     filepath.Join(dir, id+".config.json"),
		Results:    filepath.Join(dir, id+".results.csv"),
		Quarantine: filepath.Join(dir, id+".quarantine.jsonl"),
		Status:     filepath.Join(dir, id+".status.json"),
	}
}

// ListCampaignDirs scans a service directory for submitted campaigns —
// every `<id>.config.json` — and returns their layouts sorted by ID
// (numeric-aware, so c10 sorts after c2).
func ListCampaignDirs(dir string) ([]CampaignFiles, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []CampaignFiles
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".config.json") {
			continue
		}
		id := strings.TrimSuffix(name, ".config.json")
		if id == "" {
			continue
		}
		out = append(out, CampaignFilesIn(dir, id))
	}
	sort.Slice(out, func(i, j int) bool {
		return lessNumericAware(out[i].ID, out[j].ID)
	})
	return out, nil
}

// lessNumericAware orders c2 before c10 by comparing the shared alpha
// prefix, then any trailing integer by value, falling back to plain
// string order.
func lessNumericAware(a, b string) bool {
	pa, na, aok := SplitTrailingInt(a)
	pb, nb, bok := SplitTrailingInt(b)
	if aok && bok && pa == pb {
		if na != nb {
			return na < nb
		}
	}
	return a < b
}

// SplitTrailingInt splits a campaign ID such as "c12" into its prefix
// and trailing number. ok is false when s has no trailing digits or they
// overflow an int.
func SplitTrailingInt(s string) (prefix string, n int, ok bool) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	n, err := strconv.Atoi(s[i:])
	if err != nil {
		return s, 0, false
	}
	return s[:i], n, true
}

// ContiguousPrefix measures how much of the grid [base, base+total) is
// already covered by the given result rows and quarantine records as a
// contiguous prefix, and how many records lie beyond it. A coordinator's
// release frontier only ever writes contiguous prefixes, so extra > 0
// means the files are NOT a coordinator output (per-shard files that
// still need `comfase merge`, or files from a different grid) and a
// resume must refuse rather than silently discard the stray records.
func ContiguousPrefix(base, total int, rows map[int]core.ExperimentResult, fails map[int]core.ExperimentFailure) (prefix, extra int) {
	for prefix < total {
		nr := base + prefix
		_, inRows := rows[nr]
		_, inFails := fails[nr]
		if !inRows && !inFails {
			break
		}
		prefix++
	}
	return prefix, len(rows) + len(fails) - prefix
}

// ReadMergedPrefix reads a coordinator's merged results and quarantine
// files, truncates any partial trailing line a mid-write crash left
// behind, and returns the contiguous done-prefix length.
// Errors name the offending file — several campaigns share a service
// directory, so "which file was rejected" must never be ambiguous.
func ReadMergedPrefix(resultsPath, quarantinePath string, base, total int) (prefix int, err error) {
	if err := TruncateToLastNewline(resultsPath); err != nil {
		return 0, fmt.Errorf("results file %s: %w", resultsPath, err)
	}
	rows, err := ReadResultsFile(resultsPath)
	if err != nil {
		return 0, fmt.Errorf("results file %s: %w", resultsPath, err)
	}
	if err := TruncateToLastNewline(quarantinePath); err != nil {
		return 0, fmt.Errorf("quarantine file %s: %w", quarantinePath, err)
	}
	fails, err := ReadQuarantineFile(quarantinePath)
	if err != nil {
		return 0, fmt.Errorf("quarantine file %s: %w", quarantinePath, err)
	}
	prefix, extra := ContiguousPrefix(base, total, rows, fails)
	if extra > 0 {
		return 0, fmt.Errorf("results file %s holds %d record(s) beyond its %d-point contiguous prefix — not a coordinator output (per-shard files need `comfase merge` first)",
			resultsPath, extra, prefix)
	}
	return prefix, nil
}

// TruncateToLastNewline chops a partial trailing line (a crash
// mid-write) off a line-oriented output file so appending to it stays
// parseable. Missing files are fine; a file with no newline at all is
// emptied.
func TruncateToLastNewline(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(data) == 0 || data[len(data)-1] == '\n' {
		return nil
	}
	idx := bytes.LastIndexByte(data, '\n')
	return os.Truncate(path, int64(idx+1))
}
