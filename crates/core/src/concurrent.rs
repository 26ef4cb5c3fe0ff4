//! Multi-tenant deserialization: several applications sharing one platform.
//!
//! §III argues the Morpheus model shines in multiprogrammed environments:
//! each tenant's StorageApp occupies *its own* embedded core (instances pin
//! per §IV-B), so tenants scale with the drive's core count while the host
//! CPU stays free; conventional tenants instead fight for host cores, the
//! memory bus, and the scheduler. [`System::run_deserialize_many`] executes
//! the deserialization phase of N tenants concurrently — chunks are issued
//! round-robin so resource contention is modelled at chunk granularity —
//! and reports per-tenant and aggregate throughput.
//!
//! The per-tenant state machine ([`TenantState`]) is the one driver of the
//! Morpheus command lifecycle, MINIT → MREAD* → MDEINIT, and of the host
//! `read()`+parse loop of Fig. 1. The Morpheus lifecycle serves three
//! callers: this round-robin run, the solo run ([`System::run`] in
//! Morpheus modes), and the open-loop serving layer (`serve.rs`), which
//! steps one request at a time. The host loop serves four: the solo
//! conventional run, the solo Morpheus run's fallback, this round-robin
//! run, and the serving plane's host path (conventional mode, overflow,
//! fault re-dispatch). The driver owns the mechanism — device commands,
//! the storage-kind switch, the text or binary parser and its memo,
//! object landing, completion wakeups, object assembly; each caller keeps
//! only its policy: the instance id, when each command issues (and so
//! where the fault guard sits), how commands reach the device ([`Wire`]),
//! and its own trace spans.

use crate::deser_memo::{self, HostReplay, MemoKey};
use crate::exec::{AppSpec, InputFormat, RunError};
use crate::report::{mb_per_sec, Mode};
use crate::system::ChunkIo;
use crate::{BinaryDeserializeApp, DeserializeApp, StorageApp, StorageKind, System};
use morpheus_format::{
    BinaryStreamParser, ParseError, ParseWork, ParsedColumns, Schema, StreamingParser,
};
use morpheus_host::CodeClass;
use morpheus_nvme::{MorpheusCommand, NvmeCommand, StatusCode};
use morpheus_pcie::{BarWindow, DmaDir, DmaOutcome};
use morpheus_simcore::{Interval, SimDuration, SimTime};
use std::sync::Arc;

/// One tenant's outcome.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Application name.
    pub app: String,
    /// Execution mode.
    pub mode: Mode,
    /// When this tenant's objects were all delivered.
    pub deser_s: f64,
    /// Records deserialized.
    pub records: u64,
    /// Object checksum (must match a solo run of the same input).
    pub checksum: u64,
    /// Binary object bytes produced.
    pub object_bytes: u64,
}

/// Aggregate outcome of a concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentReport {
    /// Per-tenant results, in input order.
    pub tenants: Vec<TenantReport>,
    /// Time until the slowest tenant finished.
    pub makespan_s: f64,
    /// Aggregate object throughput over the makespan, MB/s.
    pub aggregate_mbs: f64,
    /// Context switches across all tenants.
    pub context_switches: u64,
}

/// A command plus the completion the device will post for it.
pub(crate) type WireCmd = (NvmeCommand, StatusCode, u32);

/// How a caller hands its NVMe commands to the device.
pub(crate) enum Wire<'a> {
    /// Each command round-trips the shared I/O queue pair as it issues
    /// (solo and round-robin runs).
    Now,
    /// Commands join a batch's burst, which the serving plane pumps
    /// through the tenant's own queue with coalesced doorbells.
    Batch(&'a mut Vec<WireCmd>),
}

/// Host-visible timing of one tenant command, for the caller's own trace
/// spans and CPU accounting.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// Input bytes the command covered (zero for a finish).
    pub(crate) bytes: u64,
    /// When the device finished the command (conventional: when the
    /// chunk landed in the host buffer; finish: when parsing ended).
    pub(crate) done: SimTime,
    /// When the command's objects finished their DMA, if it produced any.
    pub(crate) landed: Option<SimTime>,
    /// The host-core grant that followed: the completion wakeup of a
    /// Morpheus command, or a conventional chunk's read+parse slice.
    pub(crate) wakeup: Option<Interval>,
}

impl Step {
    /// When the command's effects were over on the host.
    pub(crate) fn end(&self) -> SimTime {
        self.wakeup.map_or(self.done, |w| w.end)
    }
}

/// Host-side parser dispatch over the input encoding.
pub(crate) enum HostParser {
    Text(StreamingParser),
    Binary(BinaryStreamParser),
}

impl HostParser {
    fn new(schema: &Schema, format: InputFormat) -> HostParser {
        match format {
            InputFormat::Text => HostParser::Text(StreamingParser::new(schema.clone())),
            InputFormat::Binary(e) => {
                HostParser::Binary(BinaryStreamParser::new(schema.clone(), e))
            }
        }
    }

    fn feed(&mut self, chunk: &[u8]) -> Result<(), ParseError> {
        match self {
            HostParser::Text(p) => p.feed(chunk),
            HostParser::Binary(p) => p.feed(chunk),
        }
    }

    fn work(&self) -> ParseWork {
        match self {
            HostParser::Text(p) => p.work(),
            HostParser::Binary(p) => p.work(),
        }
    }

    fn finish(self) -> Result<ParsedColumns, ParseError> {
        match self {
            HostParser::Text(p) => p.finish(),
            HostParser::Binary(p) => p.finish(),
        }
    }
}

/// Per-tenant progress state, stepped one command at a time. Built via
/// [`System::conventional_tenant`] / [`System::morpheus_tenant`] and driven
/// with [`System::step_tenant`] / [`System::finish_tenant`].
pub(crate) enum TenantState {
    /// Host-side `read()`+parse tenant.
    Conventional {
        chunks: Vec<ChunkIo>,
        next: usize,
        /// The live parser; `None` while a memo recording replays.
        parser: Option<HostParser>,
        last_work: ParseWork,
        /// Host memo key (fault-free runs only), under which a live parse
        /// publishes its per-chunk work and objects for later reuse.
        memo_key: Option<MemoKey>,
        /// A recording of an identical earlier parse. When present the
        /// parser never runs; every timed step (I/O, OS cost, core
        /// grants, bus) still runs live.
        replay: Option<Arc<HostReplay>>,
        /// Per-chunk work deltas of a live parse, kept for the memo.
        recorded: Vec<ParseWork>,
        buf_addr: u64,
        /// No I/O is issued before this time (the dispatch instant).
        start: SimTime,
        cpu_ready: SimTime,
    },
    /// In-SSD StorageApp tenant.
    Morpheus {
        spec: AppSpec,
        chunks: Vec<ChunkIo>,
        next: usize,
        iid: u32,
        /// When the instance was ready for MREADs.
        ready: SimTime,
        /// When the latest MREAD's output was delivered (MDEINIT issues
        /// no earlier).
        last_end: SimTime,
        obj_bin: Vec<u8>,
        /// P2P delivery window; `None` delivers objects to host DRAM.
        bar: Option<BarWindow>,
        /// Device memo key (fault-free runs only), under which this
        /// lifecycle's decoded objects are published for later reuse.
        memo_key: Option<MemoKey>,
        /// Decoded objects from an earlier identical lifecycle. When
        /// present the byte-stream assembly and final decode are skipped;
        /// every timed step (flash, cores, DMA, bus) still runs live.
        prefab: Option<Arc<ParsedColumns>>,
    },
}

impl TenantState {
    pub(crate) fn finished_chunks(&self) -> bool {
        match self {
            TenantState::Conventional { chunks, next, .. } => *next >= chunks.len(),
            TenantState::Morpheus { chunks, next, .. } => *next >= chunks.len(),
        }
    }

    /// The earliest time the tenant's next command may issue: the
    /// dispatch instant for a conventional tenant; for a Morpheus one the
    /// instance-ready time while MREADs remain, then the last delivery
    /// (MDEINIT).
    pub(crate) fn next_issue(&self) -> SimTime {
        match self {
            TenantState::Conventional { start, .. } => *start,
            TenantState::Morpheus {
                chunks,
                next,
                ready,
                last_end,
                ..
            } => {
                if *next < chunks.len() {
                    *ready
                } else {
                    *last_end
                }
            }
        }
    }
}

impl System {
    /// Hands one command to the device the caller's way, under a fresh
    /// command identifier.
    pub(crate) fn send(
        &mut self,
        wire: &mut Wire<'_>,
        cmd: impl FnOnce(u16) -> NvmeCommand,
        status: StatusCode,
        result: u32,
    ) {
        let cmd = cmd(self.alloc_cid());
        match wire {
            Wire::Now => {
                self.round_trip(cmd, status, result);
            }
            Wire::Batch(burst) => burst.push((cmd, status, result)),
        }
    }

    /// One OS command-completion path on a host core, no earlier than
    /// `at`: the syscall that issues MINIT, or the wakeup after a
    /// completion.
    pub(crate) fn os_wakeup(&mut self, at: SimTime) -> Interval {
        let c = self.os.command_completion();
        self.cpu_cores
            .acquire(at, self.cpu.duration(c.instructions, CodeClass::OsKernel))
    }

    /// Allocates the landing buffer for `n` bytes of objects: in the GPU's
    /// BAR window when `bar` is mapped (P2P), else in host DRAM. Returns
    /// its bus address.
    pub(crate) fn land_buffer(&mut self, n: u64, bar: Option<BarWindow>) -> Result<u64, RunError> {
        match bar {
            Some(w) => {
                let buf = self.gpu.alloc(n).ok_or(RunError::OutOfGpuMemory)?;
                Ok(w.base + buf.offset)
            }
            None => self.dram.alloc(n).ok_or(RunError::OutOfHostMemory),
        }
    }

    /// Lands `n` bytes of objects the drive pushes at `at`: allocates the
    /// buffer, runs the fabric DMA, and books the memory-bus write when
    /// the target is host DRAM.
    pub(crate) fn land(
        &mut self,
        n: u64,
        bar: Option<BarWindow>,
        at: SimTime,
    ) -> Result<DmaOutcome, RunError> {
        let addr = self.land_buffer(n, bar)?;
        let dma = self.fabric.dma(self.ssd_dev, DmaDir::Write, addr, n, at)?;
        if bar.is_none() {
            self.membus.transfer(dma.start, n);
        }
        Ok(dma)
    }

    /// Builds a conventional tenant whose first I/O happens no earlier
    /// than `start`. On a fault-free run it looks up the host memo: a
    /// recording of an identical parse replays instead of the parser.
    pub(crate) fn conventional_tenant(
        &mut self,
        spec: &AppSpec,
        start: SimTime,
    ) -> Result<TenantState, RunError> {
        let meta = self
            .fs
            .open(&spec.input)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?
            .clone();
        let chunks = Self::file_chunks(&meta, self.params.conventional_chunk_bytes);
        let memo_key = self.host_memo_key(spec, &chunks);
        let replay = memo_key.and_then(deser_memo::host_get);
        if let Some(r) = &replay {
            assert_eq!(
                r.per_chunk.len(),
                chunks.len(),
                "deser-memo chunk-count mismatch (key collision?)"
            );
        }
        // Buffer X of Fig. 1(b): the raw-input landing buffer.
        let buf_addr = self
            .dram
            .alloc(self.params.conventional_chunk_bytes)
            .ok_or(RunError::OutOfHostMemory)?;
        Ok(TenantState::Conventional {
            chunks,
            next: 0,
            parser: replay
                .is_none()
                .then(|| HostParser::new(&spec.schema, spec.input_format)),
            last_work: ParseWork::default(),
            memo_key,
            replay,
            recorded: Vec::new(),
            buf_addr,
            start,
            cpu_ready: start,
        })
    }

    /// Builds a Morpheus tenant: issues MINIT for instance `iid`, reaching
    /// the drive at `at` (the caller has taken the syscall and passed the
    /// fault guard, in its own order). The caller picks `iid` (so a
    /// dispatcher can pin instances to embedded cores) and the delivery
    /// target (`bar` for P2P). The StorageApp matches the input encoding.
    pub(crate) fn morpheus_tenant(
        &mut self,
        spec: &AppSpec,
        iid: u32,
        at: SimTime,
        bar: Option<BarWindow>,
        wire: &mut Wire<'_>,
    ) -> Result<TenantState, RunError> {
        // The runtime resolves the file into a stream (ms_stream_create):
        // permission checks and LBA layout stay on the host, §V-A2.
        let stream = crate::ms_stream_create(&self.fs, &spec.input, self.params.mread_chunk_bytes)
            .map_err(|_| RunError::UnknownFile(spec.input.clone()))?;
        let chunks = stream.chunks().to_vec();
        let memo_key = self.device_memo_key(spec, &chunks);
        let prefab = memo_key.and_then(deser_memo::objects_get);
        let app: Box<dyn StorageApp> = match spec.input_format {
            InputFormat::Text => Box::new(DeserializeApp::new(&spec.name, spec.schema.clone())),
            InputFormat::Binary(e) => Box::new(BinaryDeserializeApp::new(
                &spec.name,
                spec.schema.clone(),
                e,
            )),
        };
        let (code_len, file_len) = (app.code_bytes(), stream.len() as u32);
        self.send(
            wire,
            |cid| {
                MorpheusCommand::Init {
                    instance_id: iid,
                    code_ptr: 0x4000,
                    code_len,
                    arg: file_len,
                }
                .into_command(cid, 1)
            },
            StatusCode::Success,
            0,
        );
        let ready = self.mssd.minit_keyed(iid, app, at, memo_key)?;
        Ok(TenantState::Morpheus {
            chunks,
            next: 0,
            iid,
            ready,
            last_end: ready,
            obj_bin: Vec::new(),
            bar,
            memo_key,
            prefab,
            spec: spec.clone(),
        })
    }

    /// Runs the deserialization phase of several tenants concurrently.
    ///
    /// Chunks are issued round-robin across tenants, so host cores, the
    /// memory bus, flash channels, embedded cores, and PCIe links all
    /// contend exactly as the shared timelines dictate. Only
    /// [`Mode::Conventional`] and [`Mode::Morpheus`] tenants are supported
    /// (P2P is a single-accelerator concept). Conventional tenants read
    /// from the configured storage device, as a solo run does.
    ///
    /// # Errors
    ///
    /// Fails on an empty tenant list ([`RunError::NoTenants`]), unknown
    /// files, parse failures, firmware faults, or an unsupported mode.
    pub fn run_deserialize_many(
        &mut self,
        tenants: &[(AppSpec, Mode)],
    ) -> Result<ConcurrentReport, RunError> {
        if tenants.is_empty() {
            return Err(RunError::NoTenants);
        }
        self.reset_timing();
        let mut states = Vec::with_capacity(tenants.len());
        for (spec, mode) in tenants {
            let state = match mode {
                Mode::Conventional => self.conventional_tenant(spec, SimTime::ZERO)?,
                Mode::Morpheus => {
                    let iid = self.alloc_instance();
                    let syscall = self.os_wakeup(SimTime::ZERO);
                    self.morpheus_tenant(spec, iid, syscall.end, None, &mut Wire::Now)?
                }
                Mode::MorpheusP2P => return Err(RunError::NotGpuApp(spec.name.clone())),
            };
            states.push(state);
        }

        // Round-robin chunk issue until everyone has drained their file.
        loop {
            let mut progressed = false;
            for t in states.iter_mut() {
                if t.finished_chunks() {
                    continue;
                }
                progressed = true;
                let at = t.next_issue();
                self.step_tenant(t, at, &mut Wire::Now)?;
            }
            if !progressed {
                break;
            }
        }

        // Finish every tenant and assemble reports.
        let mut reports = Vec::with_capacity(states.len());
        let mut makespan = SimTime::ZERO;
        for (t, (spec, mode)) in states.iter_mut().zip(tenants) {
            let at = t.next_issue();
            let (step, objects) = self.finish_tenant(t, at, &mut Wire::Now)?;
            let end = step.end();
            makespan = makespan.max(end);
            reports.push(TenantReport {
                app: spec.name.clone(),
                mode: *mode,
                deser_s: end.as_secs_f64(),
                records: objects.records,
                checksum: objects.checksum(),
                object_bytes: objects.binary_bytes(),
            });
        }
        let makespan_s = makespan.as_secs_f64();
        let total_obj: u64 = reports.iter().map(|r| r.object_bytes).sum();
        Ok(ConcurrentReport {
            aggregate_mbs: mb_per_sec(total_obj, makespan_s),
            tenants: reports,
            makespan_s,
            context_switches: self.os.accounting().context_switches,
        })
    }

    /// Issues one chunk of one tenant at `at`: a conventional READ and its
    /// host parse, or an MREAD whose objects land and wake the host.
    pub(crate) fn step_tenant(
        &mut self,
        t: &mut TenantState,
        at: SimTime,
        wire: &mut Wire<'_>,
    ) -> Result<Step, RunError> {
        match t {
            TenantState::Conventional {
                chunks,
                next,
                parser,
                last_work,
                memo_key,
                replay,
                recorded,
                buf_addr,
                cpu_ready,
                ..
            } => {
                let (ci, c, buf) = (*next, chunks[*next], *buf_addr);
                *next += 1;
                // The chunk lands in the host buffer from the configured
                // storage device; only the NVMe drive sees a command.
                let (data, io_done) = match self.params.storage {
                    StorageKind::NvmeSsd => {
                        self.send(
                            wire,
                            |cid| NvmeCommand::read(cid, 1, c.slba, c.blocks, buf),
                            StatusCode::Success,
                            0,
                        );
                        let (data, t_ssd) = self.mssd.dev.read_range(c.slba, c.blocks, at)?;
                        let dma = self.fabric.dma(
                            self.ssd_dev,
                            DmaDir::Write,
                            buf,
                            c.valid_bytes,
                            t_ssd,
                        )?;
                        let mb = self.membus.transfer(dma.start, c.valid_bytes);
                        (data, dma.end.max(mb.end))
                    }
                    StorageKind::RamDrive => {
                        let data = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                        (data, self.membus.transfer(at, c.valid_bytes).end)
                    }
                    StorageKind::Hdd => {
                        let data = self.mssd.dev.read_range_untimed(c.slba, c.blocks)?;
                        let seek = SimDuration::from_secs_f64(self.params.hdd_seek_ms / 1e3);
                        let stream = SimDuration::from_secs_f64(
                            c.valid_bytes as f64 / (self.params.hdd_mbs * 1e6),
                        );
                        let iv = self.hdd.acquire(at, seek + stream);
                        let mb = self.membus.transfer(iv.start, c.valid_bytes);
                        (data, iv.end.max(mb.end))
                    }
                };
                // Record/replay of the parse work (see `deser_memo`): the
                // recorded deltas are pure functions of the memo key, so a
                // replayed chunk is priced exactly like a live one.
                let dw = match replay {
                    Some(r) => r.per_chunk[ci],
                    None => {
                        let p = parser.as_mut().expect("a live tenant has a parser");
                        p.feed(&data[..c.valid_bytes as usize])?;
                        let w = p.work();
                        let dw = w - *last_work;
                        *last_work = w;
                        if memo_key.is_some() {
                            recorded.push(dw);
                        }
                        dw
                    }
                };
                let os_cost = self.os.buffered_read(c.valid_bytes);
                let os_t = self.cpu.duration(os_cost.instructions, CodeClass::OsKernel);
                let parse_t = self.cpu.duration(
                    self.params.host_cost.int_path_instructions(&dw)
                        + self.params.host_cost.float_path_instructions(&dw),
                    CodeClass::Deserialize,
                );
                let iv = self
                    .cpu_cores
                    .acquire(io_done.max(*cpu_ready), os_t + parse_t);
                *cpu_ready = iv.end;
                self.membus.account(c.valid_bytes);
                Ok(Step {
                    bytes: c.valid_bytes,
                    done: io_done,
                    landed: None,
                    wakeup: Some(iv),
                })
            }
            TenantState::Morpheus {
                chunks,
                next,
                iid,
                last_end,
                obj_bin,
                bar,
                prefab,
                ..
            } => {
                let (c, iid) = (chunks[*next], *iid);
                *next += 1;
                self.send(
                    wire,
                    |cid| {
                        MorpheusCommand::Read {
                            instance_id: iid,
                            slba: c.slba,
                            blocks: c.blocks,
                            dma_addr: 0x2000,
                        }
                        .into_command(cid, 1)
                    },
                    StatusCode::Success,
                    0,
                );
                let out = self.mssd.mread(iid, c.slba, c.blocks, c.valid_bytes, at)?;
                let (landed, wakeup) = if out.output.is_empty() {
                    (None, None)
                } else {
                    let dma = self.land(out.output.len() as u64, *bar, out.done)?;
                    (Some(dma.end), Some(self.os_wakeup(dma.end)))
                };
                let step = Step {
                    bytes: c.valid_bytes,
                    done: out.done,
                    landed,
                    wakeup,
                };
                *last_end = (*last_end).max(step.end());
                // With a prefab in hand the assembled stream is never
                // decoded, so skip the copy (lengths above still priced
                // the DMA and bus legs identically).
                if prefab.is_none() {
                    obj_bin.extend_from_slice(&out.output);
                }
                Ok(step)
            }
        }
    }

    /// Completes a tenant's stream and returns its objects: a conventional
    /// tenant's parser finishes; a Morpheus tenant issues MDEINIT at `at`,
    /// lands the final objects, and wakes the host.
    pub(crate) fn finish_tenant(
        &mut self,
        t: &mut TenantState,
        at: SimTime,
        wire: &mut Wire<'_>,
    ) -> Result<(Step, Arc<ParsedColumns>), RunError> {
        match t {
            TenantState::Conventional {
                parser,
                memo_key,
                replay,
                recorded,
                cpu_ready,
                ..
            } => {
                let objects = match replay.take() {
                    Some(r) => r.objects.clone(),
                    None => {
                        let mut o = parser
                            .take()
                            .expect("a live tenant has a parser")
                            .finish()?;
                        o.canonicalize();
                        let o = Arc::new(o);
                        if let Some(key) = *memo_key {
                            let per_chunk = std::mem::take(recorded);
                            let objects = o.clone();
                            deser_memo::host_put(key, Arc::new(HostReplay { per_chunk, objects }));
                        }
                        o
                    }
                };
                let step = Step {
                    bytes: 0,
                    done: *cpu_ready,
                    landed: None,
                    wakeup: None,
                };
                Ok((step, objects))
            }
            TenantState::Morpheus {
                spec,
                iid,
                obj_bin,
                bar,
                memo_key,
                prefab,
                ..
            } => {
                let iid = *iid;
                let dein = self.mssd.mdeinit(iid, at)?;
                let landed = match dein.host_output.len() as u64 {
                    0 => None,
                    n => Some(self.land(n, *bar, dein.done)?.end),
                };
                let wakeup = self.os_wakeup(landed.unwrap_or(dein.done));
                let objects = match prefab.take() {
                    Some(o) => o,
                    None => {
                        obj_bin.extend_from_slice(&dein.host_output);
                        let o = Arc::new(ParsedColumns::decode(spec.schema.clone(), obj_bin)?);
                        if let Some(k) = *memo_key {
                            deser_memo::objects_put(k, o.clone());
                        }
                        o
                    }
                };
                debug_assert_eq!(dein.retval, objects.records as i32);
                self.send(
                    wire,
                    |cid| MorpheusCommand::Deinit { instance_id: iid }.into_command(cid, 1),
                    StatusCode::Success,
                    objects.records as u32,
                );
                let step = Step {
                    bytes: 0,
                    done: dein.done,
                    landed,
                    wakeup: Some(wakeup),
                };
                Ok((step, objects))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppSpec, SystemParams};
    use morpheus_format::{FieldKind, Schema, TextWriter};

    fn edge_schema() -> Schema {
        Schema::new(vec![FieldKind::U32, FieldKind::U32])
    }

    fn edge_text(n: u32, salt: u64) -> Vec<u8> {
        let mut w = TextWriter::new();
        for i in 0..n as u64 {
            w.write_u64((i * 7 + salt) % 100_000);
            w.sep();
            w.write_u64((i * 13 + salt) % 100_000);
            w.newline();
        }
        w.into_bytes()
    }

    fn system_with_tenants(n: usize) -> (System, Vec<AppSpec>) {
        let mut sys = System::new(SystemParams::paper_testbed());
        let mut specs = Vec::new();
        for i in 0..n {
            let name = format!("tenant{i}");
            let file = format!("{name}.txt");
            sys.create_input_file(&file, &edge_text(60_000, i as u64))
                .unwrap();
            specs.push(AppSpec::cpu_app(&name, &file, edge_schema(), 1, 50.0));
        }
        (sys, specs)
    }

    #[test]
    fn concurrent_tenants_match_solo_checksums() {
        let (mut sys, specs) = system_with_tenants(3);
        let solo: Vec<u64> = specs
            .iter()
            .map(|s| sys.run(s, Mode::Morpheus).unwrap().report.checksum)
            .collect();
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        for (t, want) in rep.tenants.iter().zip(&solo) {
            assert_eq!(t.checksum, *want, "{}", t.app);
        }
    }

    #[test]
    fn morpheus_tenants_scale_with_embedded_cores() {
        let (mut sys, specs) = system_with_tenants(4);
        // Solo time of one Morpheus tenant.
        let solo = sys
            .run(&specs[0], Mode::Morpheus)
            .unwrap()
            .report
            .phases
            .deserialization_s;
        // Four tenants on four embedded cores: makespan must be far below
        // 4x solo (they parse in parallel inside the drive).
        let tenants: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let rep = sys.run_deserialize_many(&tenants).unwrap();
        assert!(
            rep.makespan_s < 4.0 * solo * 0.6,
            "4 tenants took {:.4}s, solo {:.4}s — no overlap?",
            rep.makespan_s,
            solo
        );
    }

    #[test]
    fn morpheus_beats_conventional_under_multitenancy() {
        // More tenants than host cores: the conventional path serializes on
        // the CPU while Morpheus tenants spread over the drive's cores AND
        // leave the host idle.
        let (mut sys, specs) = system_with_tenants(4);
        let conv: Vec<(AppSpec, Mode)> = specs
            .iter()
            .map(|s| (s.clone(), Mode::Conventional))
            .collect();
        let morp: Vec<(AppSpec, Mode)> =
            specs.iter().map(|s| (s.clone(), Mode::Morpheus)).collect();
        let conv_rep = sys.run_deserialize_many(&conv).unwrap();
        let morp_rep = sys.run_deserialize_many(&morp).unwrap();
        assert!(morp_rep.aggregate_mbs > conv_rep.aggregate_mbs);
        assert!(morp_rep.context_switches < conv_rep.context_switches / 3);
        // Results identical either way.
        for (a, b) in conv_rep.tenants.iter().zip(&morp_rep.tenants) {
            assert_eq!(a.checksum, b.checksum);
        }
    }

    /// One vs N: a one-tenant conventional round-robin run is the solo
    /// conventional run, on every storage device.
    #[test]
    fn one_conventional_tenant_is_the_solo_run_on_every_storage() {
        for storage in [
            StorageKind::NvmeSsd,
            StorageKind::RamDrive,
            StorageKind::Hdd,
        ] {
            let mut p = SystemParams::paper_testbed();
            p.storage = storage;
            let mut sys = System::new(p);
            sys.create_input_file("t.txt", &edge_text(60_000, 3))
                .unwrap();
            let spec = AppSpec::cpu_app("t", "t.txt", edge_schema(), 1, 50.0);
            let solo = sys.run(&spec, Mode::Conventional).unwrap().report;
            let rep = sys
                .run_deserialize_many(&[(spec, Mode::Conventional)])
                .unwrap();
            let t = &rep.tenants[0];
            assert_eq!(t.checksum, solo.checksum, "{storage:?}");
            assert_eq!(t.records, solo.records, "{storage:?}");
            assert_eq!(t.deser_s, solo.phases.deserialization_s, "{storage:?}");
            // Only the NVMe drive takes commands, and each one completes.
            assert_eq!(sys.in_flight_cids.len(), 0, "{storage:?}");
        }
    }

    #[test]
    fn p2p_tenants_rejected() {
        let (mut sys, specs) = system_with_tenants(1);
        let tenants = vec![(specs[0].clone(), Mode::MorpheusP2P)];
        assert!(matches!(
            sys.run_deserialize_many(&tenants),
            Err(RunError::NotGpuApp(_))
        ));
    }

    #[test]
    fn empty_tenant_list_is_an_error() {
        let (mut sys, _) = system_with_tenants(0);
        assert!(matches!(
            sys.run_deserialize_many(&[]),
            Err(RunError::NoTenants)
        ));
    }
}
