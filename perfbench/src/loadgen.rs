//! The load generator: closed loops over line and binary connections, and a paced open loop.
//! Each connection runs on its own thread and returns one [`Record`] per request.

use crate::client::{put_unit, split_tag, Conn};
use crate::workload::{Generated, Op, Step, BULK_SLOTS};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request as the load generator saw it. Times are nanoseconds from the run's origin.
#[derive(Debug, Clone)]
pub struct Record {
    /// What was asked.
    pub step: Step,
    /// The session id the request named, or the id an open was answered with.
    pub session: u64,
    /// When the request was due: its scheduled time in an open loop; in a closed loop, when
    /// the answer it waited for arrived.
    pub due: u64,
    /// When it was written to the socket.
    pub sent: u64,
    /// When its response was read (`0`: never).
    pub recv: u64,
    /// The response body without its tag, or why the request failed.
    pub body: Result<String, String>,
}

impl Record {
    fn unsent(step: Step, due: u64, why: &str) -> Record {
        Record { step, session: 0, due, sent: 0, recv: 0, body: Err(why.to_string()) }
    }
}

/// Nanoseconds since `origin`.
pub fn nanos(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// Checks that responses carry the `conn.seq` tags the server must assign: per logical
/// connection, sequence numbers 1, 2, 3, … in request order. Bare requests ride the socket's
/// own id, learnt from the first bare response.
#[derive(Debug, Default)]
struct Tags {
    next: HashMap<u64, u64>,
    base: Option<u64>,
}

impl Tags {
    fn body(&mut self, text: &str, conn: Option<u64>) -> Result<String, String> {
        let ((tag_conn, seq), body) = split_tag(text)?;
        let conn = conn.unwrap_or_else(|| *self.base.get_or_insert(tag_conn));
        let expected = self.next.entry(conn).or_insert(0);
        *expected += 1;
        if (tag_conn, seq) != (conn, *expected) {
            return Err(format!("tag {tag_conn}.{seq} where {conn}.{expected} was due"));
        }
        Ok(body.to_string())
    }
}

/// The id in an `ok session N` body.
pub fn opened_session(body: &Result<String, String>) -> Option<u64> {
    body.as_ref().ok()?.strip_prefix("ok session ")?.parse().ok()
}

/// Closed loop with think time, one request outstanding: the k-th step of `stream` is due
/// `k × period` after the start or on the previous answer, whichever is later, until
/// `deadline`. Steps of a tenant whose open failed are recorded as failed.
pub fn closed_loop(
    conn: &mut Conn,
    generated: &Generated,
    stream: &[Step],
    period: Duration,
    origin: Instant,
    deadline: Instant,
) -> Vec<Record> {
    let mut sessions: HashMap<u32, u64> = HashMap::new();
    let mut tags = Tags::default();
    let mut records = Vec::new();
    let start = nanos(origin);
    let mut answered_at = start;
    for (k, &step) in stream.iter().enumerate() {
        let due = answered_at.max(start + k as u64 * period.as_nanos() as u64);
        let now = nanos(origin);
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        if Instant::now() >= deadline {
            break;
        }
        let tenant_conn = step.tenant.and_then(|t| generated.tenants[t as usize].conn);
        let session = match step.tenant {
            Some(t) if step.op != Op::Open => match sessions.get(&t) {
                Some(&session) => session,
                None => {
                    records.push(Record::unsent(step, due, "session never opened"));
                    continue;
                }
            },
            _ => 0,
        };
        conn.queue(&generated.line(step, session, tenant_conn));
        let sent = nanos(origin);
        let reply = conn.flush().and_then(|()| conn.recv());
        let recv = nanos(origin);
        let (body, dead) = match reply {
            Ok(text) => (tags.body(&text, tenant_conn), false),
            Err(e) => (Err(format!("transport: {e}")), true),
        };
        let mut record = Record { step, session, due, sent, recv, body };
        answered_at = recv;
        if let (Some(t), Some(id)) = (step.tenant, opened_session(&record.body)) {
            sessions.insert(t, id);
            record.session = id;
        }
        records.push(record);
        if dead {
            break;
        }
    }
    records
}

/// A bulk slot's live session: its tenant, its next action, and its id once answered.
struct Slot {
    tenant: u32,
    next: usize,
    session: u64,
}

/// Plans the ticked rounds of the bulk workload: every round carries one request per slot
/// (the slot's session's next action; a slot whose session just closed opens the next tenant
/// in the same round). Shared by the load generator and the traced replay.
pub struct Rounds {
    queue: std::vec::IntoIter<u32>,
    slots: Vec<Option<Slot>>,
}

impl Rounds {
    /// Rounds over the tenants that `stream` opens, in order.
    pub fn new(stream: &[Step]) -> Rounds {
        let tenants: Vec<u32> =
            stream.iter().filter(|s| s.op == Op::Open).filter_map(|s| s.tenant).collect();
        Rounds { queue: tenants.into_iter(), slots: (0..BULK_SLOTS).map(|_| None).collect() }
    }

    /// Fills `round` with the next round's `(slot, step, session)` requests (empty once every
    /// tenant is done).
    pub fn next_round(&mut self, generated: &Generated, round: &mut Vec<(usize, Step, u64)>) {
        round.clear();
        for (index, slot) in self.slots.iter_mut().enumerate() {
            if let Some(live) = slot {
                let op = generated.tenants[live.tenant as usize].ops[live.next];
                round.push((index, Step { tenant: Some(live.tenant), op }, live.session));
                live.next += 1;
                if op == Op::Close {
                    *slot = None;
                }
            }
            if slot.is_none() {
                if let Some(tenant) = self.queue.next() {
                    round.push((index, Step { tenant: Some(tenant), op: Op::Open }, 0));
                    *slot = Some(Slot { tenant, next: 1, session: 0 });
                }
            }
        }
    }

    /// Records the answer to the open sent for `slot`: its session id, or `None` when the
    /// open failed and the tenant is abandoned (the failed open is its record).
    pub fn opened(&mut self, slot: usize, session: Option<u64>) {
        match session {
            Some(id) => {
                if let Some(live) = &mut self.slots[slot] {
                    live.session = id;
                }
            }
            None => self.slots[slot] = None,
        }
    }
}

/// Closed loop of ticked rounds (see [`Rounds`]): each round's frames go out with a tick
/// marker after them, and the next round starts once every answer is in.
pub fn bulk_rounds(
    conn: &mut Conn,
    generated: &Generated,
    stream: &[Step],
    origin: Instant,
    deadline: Instant,
) -> Vec<Record> {
    let mut rounds = Rounds::new(stream);
    let mut tags = Tags::default();
    let mut records = Vec::new();
    let mut round = Vec::with_capacity(2 * BULK_SLOTS);
    let mut due = nanos(origin);
    while Instant::now() < deadline {
        rounds.next_round(generated, &mut round);
        if round.is_empty() {
            break;
        }
        for &(_, step, session) in &round {
            conn.queue(&generated.line(step, session, None));
        }
        conn.queue_tick();
        let sent = nanos(origin);
        let mut dead = conn.flush().err().map(|e| format!("transport: {e}"));
        for &(slot, step, session) in &round {
            let (body, recv) = match &dead {
                Some(reason) => (Err(reason.clone()), 0),
                None => match conn.recv() {
                    Ok(text) => (tags.body(&text, None), nanos(origin)),
                    Err(e) => {
                        let reason = format!("transport: {e}");
                        dead = Some(reason.clone());
                        (Err(reason), 0)
                    }
                },
            };
            let mut record = Record { step, session, due, sent, recv, body };
            if step.op == Op::Open {
                let id = opened_session(&record.body);
                rounds.opened(slot, id);
                record.session = id.unwrap_or(0);
            }
            records.push(record);
        }
        if dead.is_some() {
            break;
        }
        due = nanos(origin);
    }
    records
}

/// The session id a reactor pool assigns to the first open of logical connection `conn`.
pub fn predicted_session(conn: u64) -> u64 {
    ((conn + 1) << 32) | 1
}

/// Open loop over every connection at once: one thread writes each step at its due time
/// (`due[socket][i]` nanoseconds after `start`), whether or not earlier requests were
/// answered; the other waits on all sockets with epoll and matches responses to requests in
/// order (a connection answers in request order). Every tenant speaks on its own logical
/// connection `conn_ids[tenant]`, so its session id is predicted rather than read back.
/// Requests still unanswered `grace` after the last due time are recorded as missing.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    conns: &mut [Conn],
    generated: &Generated,
    due: &[Vec<u64>],
    conn_ids: &[u64],
    origin: Instant,
    start: u64,
    grace: Duration,
) -> Result<Vec<Record>, String> {
    let mut records: Vec<Vec<Record>> = generated
        .streams
        .iter()
        .zip(due)
        .map(|(stream, due)| {
            stream
                .iter()
                .zip(due)
                .map(|(&step, &at)| Record::unsent(step, start + at, "never sent"))
                .collect()
        })
        .collect();
    let writers = conns
        .iter()
        .map(Conn::writer)
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("cannot split connection: {e}"))?;
    let sent_counts: Vec<AtomicUsize> = conns.iter().map(|_| AtomicUsize::new(0)).collect();
    let sender_done = AtomicBool::new(false);
    let last_due = records.iter().filter_map(|r| r.last()).map(|r| r.due).max().unwrap_or(start);
    let give_up = last_due + grace.as_nanos() as u64;

    let schedules: Vec<Vec<(u64, Step)>> =
        records.iter().map(|rs| rs.iter().map(|r| (r.due, r.step)).collect()).collect();
    let (schedules, sent_counts, sender_done) = (&schedules, &sent_counts, &sender_done);
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let sent =
                send_on_schedule(writers, generated, schedules, conn_ids, origin, sent_counts);
            sender_done.store(true, Ordering::Release);
            sent
        });
        let receiver = scope.spawn(move || {
            receive_all(conns, schedules, conn_ids, origin, sent_counts, sender_done, give_up)
        });
        (
            sender.join().expect("the open-loop sender panicked"),
            receiver.join().expect("the open-loop receiver panicked"),
        )
    });
    for ((records, (times, failure)), replies) in records.iter_mut().zip(sent).zip(replies) {
        for (record, at) in records.iter_mut().zip(times) {
            let logical = conn_ids[record.step.tenant.expect("population steps") as usize];
            record.sent = at;
            record.session = predicted_session(logical);
            record.body = Err(failure.clone().unwrap_or_else(|| "missing response".to_string()));
        }
        for (record, (recv, body)) in records.iter_mut().zip(replies) {
            record.recv = recv;
            record.body = body;
        }
    }
    Ok(records.into_iter().flatten().collect())
}

/// The sender half of [`open_loop`]: sleeps until the earliest due request, then writes
/// every request now due on each socket. Returns, per socket, each written request's send
/// time and the write error that stopped the socket, if any.
fn send_on_schedule(
    mut writers: Vec<std::net::TcpStream>,
    generated: &Generated,
    schedules: &[Vec<(u64, Step)>],
    conn_ids: &[u64],
    origin: Instant,
    sent_counts: &[AtomicUsize],
) -> Vec<(Vec<u64>, Option<String>)> {
    let mut sent: Vec<(Vec<u64>, Option<String>)> =
        schedules.iter().map(|s| (Vec::with_capacity(s.len()), None)).collect();
    let mut out = Vec::new();
    loop {
        let next_due = schedules
            .iter()
            .zip(&sent)
            .filter(|(_, (_, failed))| failed.is_none())
            .filter_map(|(schedule, (times, _))| schedule.get(times.len()).map(|&(at, _)| at))
            .min();
        let Some(next_due) = next_due else { break };
        let now = nanos(origin);
        if next_due > now {
            std::thread::sleep(Duration::from_nanos(next_due - now));
        }
        let now = nanos(origin);
        for (socket, schedule) in schedules.iter().enumerate() {
            let (times, failed) = &mut sent[socket];
            if failed.is_some() {
                continue;
            }
            out.clear();
            let first = times.len();
            for &(_, step) in schedule[first..].iter().take_while(|(at, _)| *at <= now) {
                let logical = conn_ids[step.tenant.expect("population steps") as usize];
                let line = generated.line(step, predicted_session(logical), Some(logical));
                put_unit(&mut out, false, &line);
                times.push(nanos(origin));
            }
            if times.len() == first {
                continue;
            }
            if let Err(e) = writers[socket].write_all(&out) {
                *failed = Some(format!("transport: {e}"));
                times.truncate(first);
            }
            sent_counts[socket].store(times.len(), Ordering::Release);
        }
    }
    sent
}

/// The receiver half of [`open_loop`]: waits on every socket at once and pairs the k-th
/// response of a socket with its k-th request. Returns, per socket, `(receive time, body)`
/// in request order.
#[allow(clippy::too_many_arguments)]
fn receive_all(
    conns: &mut [Conn],
    schedules: &[Vec<(u64, Step)>],
    conn_ids: &[u64],
    origin: Instant,
    sent_counts: &[AtomicUsize],
    sender_done: &AtomicBool,
    give_up: u64,
) -> Vec<Vec<(u64, Result<String, String>)>> {
    let mut replies: Vec<Vec<(u64, Result<String, String>)>> =
        schedules.iter().map(|s| Vec::with_capacity(s.len())).collect();
    let mut tags: Vec<Tags> = conns.iter().map(|_| Tags::default()).collect();
    let mut open: Vec<bool> = vec![true; conns.len()];
    let poller = match epoll::Epoll::new() {
        Ok(poller) => poller,
        Err(_) => return replies,
    };
    for (socket, conn) in conns.iter().enumerate() {
        if poller.add(conn.raw_fd(), epoll::EPOLLIN | epoll::EPOLLRDHUP, socket as u64).is_err() {
            open[socket] = false;
        }
    }
    let mut events = [epoll::EpollEvent::default(); 8];
    let mut units = Vec::new();
    loop {
        let done = sender_done.load(Ordering::Acquire);
        let caught_up = replies
            .iter()
            .zip(sent_counts)
            .zip(&open)
            .all(|((r, sent), &open)| !open || r.len() >= sent.load(Ordering::Acquire));
        if (done && caught_up) || nanos(origin) > give_up {
            break;
        }
        let ready = poller.wait(5, &mut events).unwrap_or(0);
        for event in &events[..ready] {
            let socket = event.data as usize;
            if !open[socket] {
                continue;
            }
            let result = conns[socket].read_ready(&mut units);
            let recv = nanos(origin);
            for text in units.drain(..) {
                let index = replies[socket].len();
                let Some(&(_, step)) = schedules[socket].get(index) else { break };
                let logical = conn_ids[step.tenant.expect("population steps") as usize];
                replies[socket].push((recv, tags[socket].body(&text, Some(logical))));
            }
            if result.is_err() {
                open[socket] = false;
                let _ = poller.delete(conns[socket].raw_fd());
            }
        }
    }
    replies
}

/// A request's latency in microseconds, if it was answered. In an open loop latency runs
/// from the due time, so a stall that delays sending is charged to every request it delays;
/// in a closed loop it runs from the send.
pub fn latency_us(record: &Record, open: bool) -> Option<f64> {
    let from = if open { record.due } else { record.sent };
    (record.recv > 0).then(|| record.recv.saturating_sub(from) as f64 / 1e3)
}

/// Latency and lateness of answered requests, in microseconds (see [`latency_us`]).
/// Lateness is how long after its due time the generator wrote each request: behind
/// schedule in an open loop, its own turnaround after the previous answer in a closed one.
pub fn timings(records: &[Record], open: bool) -> (Vec<f64>, Vec<f64>) {
    let answered = records.iter().filter(|r| r.recv > 0);
    let latency = answered.clone().filter_map(|r| latency_us(r, open)).collect();
    let lateness = answered.map(|r| r.sent.saturating_sub(r.due) as f64 / 1e3).collect();
    (latency, lateness)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;

    fn record(due: u64, sent: u64, recv: u64) -> Record {
        let step = Step { tenant: Some(0), op: Op::Open };
        Record { step, session: 0, due, sent, recv, body: Ok("ok session 1".to_string()) }
    }

    #[test]
    fn open_loop_latency_counts_a_stall_from_the_due_time() {
        // Due every 100 µs; the generator stalls until 250 µs and sends all three at once.
        let records = [
            record(0, 250_000, 260_000),
            record(100_000, 250_000, 270_000),
            record(200_000, 250_000, 280_000),
            Record::unsent(Step { tenant: Some(0), op: Op::Close }, 300_000, "missing"),
        ];
        let (latency, lateness) = timings(&records, true);
        assert_eq!(latency, vec![260.0, 170.0, 80.0]);
        assert_eq!(lateness, vec![250.0, 150.0, 50.0]);
    }

    #[test]
    fn closed_loop_latency_runs_from_the_send_and_lateness_is_turnaround() {
        // The previous answer arrived at 3 µs; the generator wrote the next request at 5 µs.
        let (latency, lateness) = timings(&[record(3_000, 5_000, 9_000)], false);
        assert_eq!(latency, vec![4.0]);
        assert_eq!(lateness, vec![2.0]);
    }

    #[test]
    fn tags_must_follow_per_connection_sequence() {
        let mut tags = Tags::default();
        assert_eq!(tags.body("1000.1 ok session 5", Some(1000)).unwrap(), "ok session 5");
        assert_eq!(tags.body("7.1 ok count 3", None).unwrap(), "ok count 3");
        assert!(tags.body("1000.3 ok answer true", Some(1000)).is_err());
        assert!(tags.body("! malformed wire line: x", Some(1000)).is_err());
        assert!(tags.body("8.2 ok valid", None).is_err());
    }

    #[test]
    fn predicted_ids_match_the_pool_packing() {
        assert_eq!(predicted_session(0), (1 << 32) | 1);
        assert_eq!(predicted_session(1000), (1001 << 32) | 1);
    }
}
