package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host identifies the machine a campaign ran on.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// CurrentHost captures the running process's host identity.
func CurrentHost() Host {
	return Host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// GitRevision returns the short revision of the repository containing dir,
// or "" when git or the repository is unavailable — artifacts produced
// outside a checkout simply omit the stamp, and readers tolerate that.
func GitRevision(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// SHA256Hex returns the lowercase hex SHA-256 of data; the manifest uses
// it to fingerprint the grid file and every cell's resolved configuration.
func SHA256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// fileSHA256 fingerprints a file on disk ("" when unreadable).
func fileSHA256(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return SHA256Hex(data)
}

// CellRecord is one cell's manifest entry: everything needed to reproduce
// the cell (seed, scenario, config hash) plus what it produced.
type CellRecord struct {
	Name       string  `json:"name"`
	Experiment string  `json:"experiment"`
	Scenario   string  `json:"scenario"`
	Repeat     int     `json:"repeat"`
	Seed       uint64  `json:"seed"`
	Packets    int     `json:"packets,omitempty"`
	ConfigHash string  `json:"config_sha256,omitempty"`
	CSV        string  `json:"csv,omitempty"`
	Rows       int     `json:"rows"`
	MetricsCSV string  `json:"metrics_csv,omitempty"`
	Trace      string  `json:"trace,omitempty"`
	WallMs     float64 `json:"wall_ms"`
	Status     string  `json:"status"`
}

// Manifest is the campaign's machine-readable record, written as
// manifest.json in the output directory. Everything that shapes results
// (host, toolchain, revision, grid fingerprint, per-cell seeds and config
// hashes) is captured; wall times are recorded but explicitly outside the
// determinism contract.
type Manifest struct {
	Campaign    string       `json:"campaign"`
	Stamp       string       `json:"stamp"`
	CreatedUTC  string       `json:"created_utc"`
	Host        Host         `json:"host"`
	GitRevision string       `json:"git_revision,omitempty"`
	GridPath    string       `json:"grid_path,omitempty"`
	GridSHA256  string       `json:"grid_sha256,omitempty"`
	Parallelism int          `json:"parallelism"`
	Cells       []CellRecord `json:"cells"`
}
