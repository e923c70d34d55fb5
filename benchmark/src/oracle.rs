//! Correctness oracle: the harness links the crates, opens the snapshot the
//! server was started on, and recomputes sampled responses in process.

use crate::workloads::Req;
use sensormeta::query::{QueryEngine, QueryOutput};
use sensormeta::server::http::read_request;
use sensormeta::server::{App, AppConfig};
use sensormeta::smr::Smr;
use std::path::Path;

/// An in-process, single-store application over the run's snapshot.
pub struct Oracle {
    pub app: App,
}

impl Oracle {
    pub fn open(snapshot: &Path) -> Result<Oracle, Box<dyn std::error::Error>> {
        let engine = QueryEngine::open(Smr::load(snapshot)?)?;
        Ok(Oracle {
            app: App::with_config(engine, AppConfig::default()),
        })
    }

    /// Checks one `/search` response body from the wire.
    ///
    /// A JSON body must list the titles `QueryEngine::search_uncached`
    /// returns, in its order, with its `total_matched`. Every body, HTML
    /// included, must equal byte for byte what a single-store server renders
    /// for the request — which for `sharded_cold` is the statement that the
    /// scattered answer equals the `search_cold` answer to the same request.
    pub fn check_search(&self, req: &Req, body: &[u8]) -> Result<(), String> {
        let form = req.form.as_ref().ok_or("not a /search request")?;
        if !req.target.ends_with("format=html") {
            let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
            let got: QueryOutput = serde_json::from_str(text).map_err(|e| e.to_string())?;
            let want = self
                .app
                .engine_snapshot()
                .search_uncached(form, None)
                .map_err(|e| e.to_string())?;
            let titles = |o: &QueryOutput| -> Vec<String> {
                o.items.iter().map(|i| i.title.clone()).collect()
            };
            if got.total_matched != want.total_matched || titles(&got) != titles(&want) {
                return Err(format!(
                    "{}: got {} matches {:?}, oracle has {} matches {:?}",
                    req.target,
                    got.total_matched,
                    titles(&got).iter().take(3).collect::<Vec<_>>(),
                    want.total_matched,
                    titles(&want).iter().take(3).collect::<Vec<_>>(),
                ));
            }
        }
        let parsed = read_request(&mut &req.wire_bytes()[..]).map_err(|e| e.to_string())?;
        let rendered = self.app.handle(&parsed);
        if rendered.body != body {
            return Err(format!(
                "{}: {} body bytes differ from the single-store rendering ({} bytes)",
                req.target,
                body.len(),
                rendered.body.len()
            ));
        }
        Ok(())
    }
}
