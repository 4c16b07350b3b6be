package dca

import (
	"encoding/json"
	"fmt"
)

// Persistent serialization of the per-launch KernelReport. Bump the
// version constant when the report's shape changes.

const kernelReportVersion = 1

type kernelReportJSON struct {
	Version int          `json:"version"`
	Report  KernelReport `json:"report"`
}

// MarshalKernelReport serialises one per-launch report.
func MarshalKernelReport(r *KernelReport) ([]byte, error) {
	if r == nil {
		return nil, fmt.Errorf("dca: cannot marshal a nil report")
	}
	return json.Marshal(kernelReportJSON{Version: kernelReportVersion, Report: *r})
}

// UnmarshalKernelReport reconstructs a persisted report.
func UnmarshalKernelReport(b []byte) (*KernelReport, error) {
	var j kernelReportJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, fmt.Errorf("dca: decoding report: %w", err)
	}
	if j.Version != kernelReportVersion {
		return nil, fmt.Errorf("dca: unsupported report version %d (want %d)", j.Version, kernelReportVersion)
	}
	if j.Report.Static < 0 || j.Report.Executed < 0 || j.Report.Threads < 0 {
		return nil, fmt.Errorf("dca: corrupt report payload")
	}
	r := j.Report
	return &r, nil
}
