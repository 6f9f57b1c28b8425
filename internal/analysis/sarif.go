package analysis

import (
	"encoding/json"
	"fmt"
	"io"
)

// SARIF 2.1.0 output (-sarif), the static-analysis interchange format GitHub
// code scanning and most IDE integrations ingest. Only the fields consumers
// require are emitted; the shapes below mirror the specification names.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	Name             string       `json:"name,omitempty"`
	ShortDescription sarifMessage `json:"shortDescription"`
	FullDescription  sarifMessage `json:"fullDescription,omitempty"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// Fingerprint identifies a diagnostic for deduplication: same analyzer, same
// position, same message.
func (d Diagnostic) Fingerprint() string {
	return fmt.Sprintf("%s|%s:%d:%d|%s", d.Analyzer, d.File, d.Line, d.Col, d.Message)
}

// DedupeDiagnostics drops exact duplicates (two analyzers walking overlapping
// CFG nodes, or one site reported per data-flow fact) while preserving order.
func DedupeDiagnostics(diags []Diagnostic) []Diagnostic {
	seen := make(map[string]bool, len(diags))
	out := diags[:0:0]
	for _, d := range diags {
		fp := d.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		out = append(out, d)
	}
	return out
}

// WriteSARIF renders diagnostics as one SARIF 2.1.0 run. Every analyzer in
// the suite appears as a rule stamped with its doc string (so consumers can
// enumerate the ruleset even on a clean run); each diagnostic becomes a
// warning-level result, with exact duplicates collapsed.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{
			ID:               a.Name,
			Name:             a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
			FullDescription:  sarifMessage{Text: a.Doc},
		})
	}
	diags = DedupeDiagnostics(diags)
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: d.File},
					Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "pressiolint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
