package control

import (
	"encoding/json"
	"net/http"
)

// Handler serves the controller's debug surface:
//
//	GET  /debug/control           — Status as JSON
//	GET  /debug/control/audit     — AuditPage: the retained
//	                                ReconcileRecords, oldest first
//	POST /debug/control/reconcile — force a reconcile round, reply with
//	                                its Report as JSON
//
// clusterd.ControlPlane mounts it next to /metrics and /debug/vars;
// cmd/cdnctl is its client.
func Handler(c *Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/control", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("/debug/control/audit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, AuditPage{Records: c.Audit()})
	})
	mux.HandleFunc("/debug/control/reconcile", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rep, err := c.Reconcile()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, rep)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
