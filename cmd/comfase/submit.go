package main

// The multi-campaign control plane: `comfase serve -dir` turns the
// coordinator into a campaign service, and `comfase submit` /
// `comfase campaigns` are its operator CLI. The wire types live in
// internal/fabric; this file only does flags, HTTP and printing.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"comfase/internal/fabric"
)

// runServeSubmitMode runs `comfase serve` as a multi-campaign service:
// campaigns arrive over /v1/campaigns, every campaign's artifacts live
// in the service directory, and SIGINT drains — leaving queued and
// half-done campaigns resumable with -resume.
func runServeSubmitMode(ctx context.Context, stdout io.Writer, srv fabricServer) error {
	dir := srv.opts.Dir
	svc, err := srv.run(ctx, stdout, nil, func(svc *fabric.Service, addr net.Addr) {
		fmt.Fprintf(stdout, "fabric campaign service on http://%s: %d campaign(s) in %s, lease TTL %v\n",
			addr, len(svc.ListCampaigns()), dir, ttlOrDefault(srv.opts.LeaseTTL))
		fmt.Fprintf(stdout, "submit campaigns with: comfase submit -coordinator http://%s -config FILE\n", addr)
	})
	if svc == nil {
		return err
	}
	switch {
	case errors.Is(err, fabric.ErrDrained):
		remaining := 0
		for _, st := range svc.ListCampaigns() {
			if st.State == fabric.StateQueued || st.State == fabric.StateRunning {
				remaining++
			}
		}
		fmt.Fprintf(stdout, "service drained: %d campaign(s) incomplete; configs and merged prefixes are in %s — continue with -resume\n",
			remaining, dir)
		return errInterrupted
	case err != nil:
		return err
	}
	fmt.Fprintf(stdout, "service drained: all %d campaign(s) complete in %s\n", len(svc.ListCampaigns()), dir)
	return nil
}

// runSubmit posts a campaign config to a running campaign service.
func runSubmit(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	coordURL := fs.String("coordinator", "", "campaign service base URL, e.g. http://host:7440 (required)")
	cfgPath := fs.String("config", "", "JSON campaign configuration to submit (required)")
	name := fs.String("name", "", "optional human-readable campaign name shown by `comfase campaigns`")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("submit: -coordinator is required")
	}
	if *cfgPath == "" {
		return fmt.Errorf("submit: -config is required")
	}
	cfgJSON, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	var resp fabric.SubmitResponse
	if err := postControl(ctx, *coordURL+fabric.PathCampaigns,
		fabric.SubmitRequest{Name: *name, Config: cfgJSON}, &resp); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Fprintf(stdout, "campaign %s submitted: %d grid points, queue position %d\n",
		resp.CampaignID, resp.Total, resp.Position)
	return nil
}

// runCampaigns lists, inspects, cancels, or fetches results from a
// running campaign service.
func runCampaigns(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("campaigns", flag.ContinueOnError)
	coordURL := fs.String("coordinator", "", "campaign service base URL (required)")
	id := fs.String("id", "", "print one campaign's status document instead of the list")
	cancelID := fs.String("cancel", "", "cancel the campaign with this ID")
	resultsID := fs.String("results", "", "fetch a campaign's merged results CSV")
	outPath := fs.String("o", "", "with -results, write the CSV here instead of stdout")
	quarantineOut := fs.String("quarantine-out", "", "with -results, also write the campaign's quarantine records here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordURL == "" {
		return fmt.Errorf("campaigns: -coordinator is required")
	}
	modes := 0
	for _, m := range []string{*id, *cancelID, *resultsID} {
		if m != "" {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("campaigns: -id, -cancel and -results are mutually exclusive")
	}

	switch {
	case *cancelID != "":
		var resp fabric.CancelResponse
		if err := postControl(ctx, *coordURL+fabric.PathCampaignCancel,
			fabric.CancelRequest{CampaignID: *cancelID}, &resp); err != nil {
			return fmt.Errorf("campaigns: %w", err)
		}
		if !resp.OK {
			fmt.Fprintf(stdout, "campaign %s already %s; nothing to cancel\n", *cancelID, resp.State)
			return nil
		}
		fmt.Fprintf(stdout, "campaign %s cancelled; merged rows so far stay on disk\n", *cancelID)
		return nil

	case *id != "":
		var st fabric.CampaignStatus
		if err := getControl(ctx, *coordURL+fabric.PathCampaignStatus+"?id="+*id, &st); err != nil {
			return fmt.Errorf("campaigns: %w", err)
		}
		doc, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", doc)
		return nil

	case *resultsID != "":
		var res fabric.CampaignResultsResponse
		if err := getControl(ctx, *coordURL+fabric.PathCampaignResults+"?id="+*resultsID, &res); err != nil {
			return fmt.Errorf("campaigns: %w", err)
		}
		out := stdout
		if *outPath != "" {
			fl, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer fl.Close()
			out = fl
		}
		if _, err := io.WriteString(out, res.CSV); err != nil {
			return err
		}
		if *quarantineOut != "" {
			if err := os.WriteFile(*quarantineOut, []byte(res.Quarantine), 0o644); err != nil {
				return err
			}
		}
		if *outPath != "" {
			fmt.Fprintf(stdout, "campaign %s: %d/%d grid points (%s) written to %s\n",
				res.CampaignID, res.Merged, res.Total, res.State, *outPath)
		}
		return nil

	default:
		var list fabric.CampaignListResponse
		if err := getControl(ctx, *coordURL+fabric.PathCampaigns, &list); err != nil {
			return fmt.Errorf("campaigns: %w", err)
		}
		tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ID\tNAME\tSTATE\tMERGED\tTOTAL\tCHUNKS")
		for _, st := range list.Campaigns {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d/%d\n",
				st.ID, st.Name, st.State, st.Merged, st.Total, st.ChunksDone, st.Chunks)
		}
		return tw.Flush()
	}
}

// controlClient is the operator-CLI HTTP client; control-plane calls are
// small and a stuck service should fail fast.
var controlClient = &http.Client{Timeout: 30 * time.Second}

// postControl POSTs a JSON message and decodes the 200 response; any
// other status surfaces the service's error body.
func postControl(ctx context.Context, url string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	return doControl(httpReq, resp)
}

// getControl GETs a control-plane document.
func getControl(ctx context.Context, url string, resp any) error {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doControl(httpReq, resp)
}

func doControl(req *http.Request, resp any) error {
	httpResp, err := controlClient.Do(req)
	if err != nil {
		return err
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("service answered %s: %s", httpResp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, resp); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	return nil
}
